//! Independent output checks, run on every mesh the benchmark receives.
//!
//! Everything here is the benchmark's own arithmetic over the VTK bytes and
//! the voxel labels: it calls nothing from the program's quality, geometry
//! or oracle layers, so a fault there cannot hide itself. A mesh passes when
//!
//! - it parses back with the point and cell counts the program reported;
//! - every tetrahedron has positive volume;
//! - every tetrahedron has radius-edge ratio at most 2 (relative floating-point
//!   tolerance [`RATIO_TOL`]);
//! - every boundary triangle (a face of one tetrahedron, or between two
//!   tetrahedra of different tissues) has all planar angles at least 30°,
//!   up to [`ANGLE_TOL_DEG`];
//! - no tetrahedron carries label 0 and every tissue of the image appears;
//! - each tissue's mesh volume is within [`Reference::volume_tolerance`] of
//!   its voxel-count volume: its interface area times half a voxel
//!   diagonal, and never more than half its voxel-count volume;
//! - the two-sided Hausdorff distance between the mesh boundary and the label
//!   interfaces of the image is at most [`Reference::hausdorff_bound`].

use crate::vtk::{parse_vtk, ParsedMesh};
use pi2m_image::LabeledImage;
use std::collections::HashMap;

/// Relative slack on the radius-edge bound of 2, for rounding differences
/// between this arithmetic and the program's.
pub const RATIO_TOL: f64 = 1e-9;
/// Slack on the 30° boundary planar angle bound, in degrees.
pub const ANGLE_TOL_DEG: f64 = 1e-6;

/// Figures of one mesh that passed every check.
#[derive(Clone, Copy, Debug)]
pub struct MeshFigures {
    pub tets: usize,
    pub radius_edge_max: f64,
    pub boundary_angle_min_deg: f64,
    pub hausdorff: f64,
}

/// What the program said it produced, to compare the parsed bytes against.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    pub points: Option<usize>,
    pub tets: usize,
}

/// The image side of the checks: the voxel labels, the label interfaces
/// found from them, and the bounds the mesh is held to.
pub struct Reference {
    dims: [usize; 3],
    spacing: [f64; 3],
    origin: [f64; 3],
    labels: Vec<u8>,
    /// Non-zero labels present in the image, ascending.
    tissues: Vec<u8>,
    voxel_volume: f64,
    label_voxels: Vec<u64>,
    /// Interface area touching each label (voxel faces, so a staircase
    /// over-estimate of the smooth surface).
    label_area: Vec<f64>,
    /// Centers of the voxel faces that separate different labels, including
    /// foreground faces on the image border.
    faces: Vec<[f64; 3]>,
    delta: f64,
}

fn sub(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}
fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}
fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}
fn norm2(a: [f64; 3]) -> f64 {
    dot(a, a)
}
fn lerp(a: [f64; 3], b: [f64; 3], t: f64) -> [f64; 3] {
    [
        a[0] + (b[0] - a[0]) * t,
        a[1] + (b[1] - a[1]) * t,
        a[2] + (b[2] - a[2]) * t,
    ]
}

impl Reference {
    /// Scan the image once: label inventory, interface faces and areas.
    pub fn new(img: &LabeledImage, delta: f64) -> Reference {
        let dims = img.dims();
        let spacing = img.spacing();
        let o = img.origin();
        let origin = [o.x, o.y, o.z];
        let labels = img.data().to_vec();
        let idx = |i: usize, j: usize, k: usize| i + dims[0] * (j + dims[1] * k);
        let mut label_voxels = vec![0u64; 256];
        for &l in &labels {
            label_voxels[l as usize] += 1;
        }
        let tissues = (1..256)
            .filter(|&l| label_voxels[l] > 0)
            .map(|l| l as u8)
            .collect();
        let mut label_area = vec![0.0; 256];
        let mut faces = Vec::new();
        // Faces normal to `axis` lie between index n-1 and n along it, for
        // n in 0..=dims[axis]; indices outside the image read as label 0.
        for axis in 0..3 {
            let (a1, a2) = ((axis + 1) % 3, (axis + 2) % 3);
            let area = spacing[a1] * spacing[a2];
            let mut ijk = [0usize; 3];
            for n in 0..=dims[axis] {
                for u in 0..dims[a1] {
                    for v in 0..dims[a2] {
                        ijk[a1] = u;
                        ijk[a2] = v;
                        let below = if n == 0 {
                            0
                        } else {
                            ijk[axis] = n - 1;
                            labels[idx(ijk[0], ijk[1], ijk[2])]
                        };
                        let above = if n == dims[axis] {
                            0
                        } else {
                            ijk[axis] = n;
                            labels[idx(ijk[0], ijk[1], ijk[2])]
                        };
                        if below == above {
                            continue;
                        }
                        for l in [below, above] {
                            if l != 0 {
                                label_area[l as usize] += area;
                            }
                        }
                        let mut c = [0.0; 3];
                        c[axis] = origin[axis] + n as f64 * spacing[axis];
                        c[a1] = origin[a1] + (u as f64 + 0.5) * spacing[a1];
                        c[a2] = origin[a2] + (v as f64 + 0.5) * spacing[a2];
                        faces.push(c);
                    }
                }
            }
        }
        Reference {
            dims,
            spacing,
            origin,
            labels,
            tissues,
            voxel_volume: spacing[0] * spacing[1] * spacing[2],
            label_voxels,
            label_area,
            faces,
            delta,
        }
    }

    fn voxel_diagonal(&self) -> f64 {
        norm2(self.spacing).sqrt()
    }

    /// The fidelity bound, in world units: δ plus one voxel diagonal.
    ///
    /// The mesh boundary is sampled on the program's isosurface at density δ,
    /// so every boundary point lies within about δ of a surface sample, and
    /// the isosurface itself (the label change of the voxel field) follows
    /// the voxel faces to within one voxel diagonal where it cuts across the
    /// staircase.
    pub fn hausdorff_bound(&self) -> f64 {
        self.delta + self.voxel_diagonal()
    }

    /// Allowed |mesh volume − voxel volume| of a tissue: the volume of a
    /// layer half a voxel diagonal thick over its voxel-face interface (how
    /// far the staircase of faces departs from a smooth surface through the
    /// same voxels), capped at half the tissue's voxel-count volume. The cap
    /// binds for thin tissues, whose layer would exceed their whole volume:
    /// none of them can lose or gain half of itself unnoticed.
    ///
    /// On the benchmark's workloads the largest error seen was 0.78 of this
    /// tolerance (the aorta at δ 8 mm, over a third of its volume short).
    pub fn volume_tolerance(&self, label: u8) -> f64 {
        let layer = self.label_area[label as usize] * 0.5 * self.voxel_diagonal();
        let volume = self.label_voxels[label as usize] as f64 * self.voxel_volume;
        layer.min(0.5 * volume)
    }

    fn label(&self, i: isize, j: isize, k: isize) -> u8 {
        let d = self.dims;
        if i < 0 || j < 0 || k < 0 || i >= d[0] as isize || j >= d[1] as isize || k >= d[2] as isize
        {
            return 0;
        }
        self.labels[i as usize + d[0] * (j as usize + d[1] * k as usize)]
    }

    fn voxel_of(&self, p: [f64; 3]) -> [isize; 3] {
        std::array::from_fn(|a| ((p[a] - self.origin[a]) / self.spacing[a]).floor() as isize)
    }

    /// Distance from `p` to the nearest label interface: the distance to the
    /// closest voxel whose label differs from the label at `p` (the
    /// interface bounds the region `p` lies in, so nothing nearer exists).
    pub fn interface_distance(&self, p: [f64; 3]) -> f64 {
        let v = self.voxel_of(p);
        let own = self.label(v[0], v[1], v[2]);
        let mut r = 0.5 * self.spacing.iter().cloned().fold(f64::INFINITY, f64::min);
        loop {
            let lo: [isize; 3] = std::array::from_fn(|a| {
                (((p[a] - r - self.origin[a]) / self.spacing[a]).floor() as isize).max(-1)
            });
            let hi: [isize; 3] = std::array::from_fn(|a| {
                (((p[a] + r - self.origin[a]) / self.spacing[a]).floor() as isize)
                    .min(self.dims[a] as isize)
            });
            let mut best2 = f64::INFINITY;
            for k in lo[2]..=hi[2] {
                for j in lo[1]..=hi[1] {
                    for i in lo[0]..=hi[0] {
                        if self.label(i, j, k) == own {
                            continue;
                        }
                        let mut d2 = 0.0;
                        for (a, n) in [i, j, k].into_iter().enumerate() {
                            let lo_a = self.origin[a] + n as f64 * self.spacing[a];
                            let hi_a = lo_a + self.spacing[a];
                            let d = (lo_a - p[a]).max(p[a] - hi_a).max(0.0);
                            d2 += d * d;
                        }
                        best2 = best2.min(d2);
                    }
                }
            }
            // Every voxel meeting the ball of radius r was scanned (the
            // layer outside the image stands for all of the outside), so a
            // hit within r is the nearest; past the whole image there is
            // nothing more to scan (infinite for a single-label image).
            let scanned_all = (0..3).all(|a| lo[a] == -1 && hi[a] == self.dims[a] as isize);
            if best2 <= r * r || scanned_all {
                return best2.sqrt();
            }
            r *= 2.0;
        }
    }
}

/// Parse the VTK bytes and run every check. The first failed check is the
/// error.
pub fn check_vtk(reference: &Reference, vtk: &[u8], expect: Expect) -> Result<MeshFigures, String> {
    let mesh = parse_vtk(vtk)?;
    check_mesh(reference, &mesh, expect)
}

/// Run every check on a parsed mesh.
pub fn check_mesh(
    reference: &Reference,
    m: &ParsedMesh,
    expect: Expect,
) -> Result<MeshFigures, String> {
    check_counts(m, expect)?;
    check_volumes_positive(m)?;
    let radius_edge_max = check_radius_edge(m)?;
    let boundary = boundary_triangles(m);
    let boundary_angle_min_deg = check_boundary_angles(m, &boundary)?;
    check_labels(reference, m)?;
    check_label_volumes(reference, m)?;
    let hausdorff = check_fidelity(reference, m, &boundary)?;
    Ok(MeshFigures {
        tets: m.tets.len(),
        radius_edge_max,
        boundary_angle_min_deg,
        hausdorff,
    })
}

pub fn check_counts(m: &ParsedMesh, e: Expect) -> Result<(), String> {
    if m.tets.len() != e.tets {
        return Err(format!(
            "vtk has {} cells, program reported {}",
            m.tets.len(),
            e.tets
        ));
    }
    if let Some(p) = e.points {
        if m.points.len() != p {
            return Err(format!(
                "vtk has {} points, program reported {p}",
                m.points.len()
            ));
        }
    }
    if m.tets.is_empty() {
        return Err("mesh has no tetrahedra".into());
    }
    Ok(())
}

fn corners(m: &ParsedMesh, t: &[u32; 4]) -> [[f64; 3]; 4] {
    t.map(|v| m.points[v as usize])
}

/// Six times the signed volume, in the orientation the program documents
/// for its meshes: `det[a−d, b−d, c−d]` (Shewchuk's orient3d) is positive.
/// That is the mirror image of the VTK_TETRA convention, in which `d` lies on
/// the side the right-hand normal of `a, b, c` points to.
fn volume6(p: [[f64; 3]; 4]) -> f64 {
    dot(sub(p[0], p[3]), cross(sub(p[1], p[3]), sub(p[2], p[3])))
}

pub fn check_volumes_positive(m: &ParsedMesh) -> Result<(), String> {
    for (i, t) in m.tets.iter().enumerate() {
        let v = volume6(corners(m, t));
        if v.is_nan() || v <= 0.0 {
            return Err(format!(
                "tetrahedron {i} has non-positive volume {}",
                v / 6.0
            ));
        }
    }
    Ok(())
}

/// Circumradius over shortest edge.
fn radius_edge(p: [[f64; 3]; 4]) -> f64 {
    let (u, v, w) = (sub(p[1], p[0]), sub(p[2], p[0]), sub(p[3], p[0]));
    let den = 2.0 * dot(u, cross(v, w));
    let (vw, wu, uv) = (cross(v, w), cross(w, u), cross(u, v));
    let (nu, nv, nw) = (norm2(u), norm2(v), norm2(w));
    let c: [f64; 3] = std::array::from_fn(|a| (nu * vw[a] + nv * wu[a] + nw * uv[a]) / den);
    let r = norm2(c).sqrt();
    let mut shortest = f64::INFINITY;
    for a in 0..4 {
        for b in a + 1..4 {
            shortest = shortest.min(norm2(sub(p[a], p[b])));
        }
    }
    r / shortest.sqrt()
}

pub fn check_radius_edge(m: &ParsedMesh) -> Result<f64, String> {
    let mut worst: f64 = 0.0;
    for (i, t) in m.tets.iter().enumerate() {
        let q = radius_edge(corners(m, t));
        if q.is_nan() || q > 2.0 * (1.0 + RATIO_TOL) {
            return Err(format!("tetrahedron {i} has radius-edge ratio {q}"));
        }
        worst = worst.max(q);
    }
    Ok(worst)
}

/// Faces of one tetrahedron, or between tetrahedra of different labels.
pub fn boundary_triangles(m: &ParsedMesh) -> Vec<[u32; 3]> {
    const FACES: [[usize; 3]; 4] = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]];
    // sorted face -> (first label, incidences, labels differ, the face)
    let mut seen: HashMap<[u32; 3], (u8, u8, bool, [u32; 3])> =
        HashMap::with_capacity(m.tets.len() * 2);
    for (t, &label) in m.tets.iter().zip(&m.labels) {
        for f in FACES {
            let tri = [t[f[0]], t[f[1]], t[f[2]]];
            let mut key = tri;
            key.sort_unstable();
            let e = seen.entry(key).or_insert((label, 0, false, tri));
            e.1 += 1;
            e.2 |= e.0 != label;
        }
    }
    let mut out: Vec<[u32; 3]> = seen
        .into_values()
        .filter(|&(_, n, differ, _)| n == 1 || differ)
        .map(|(_, _, _, tri)| tri)
        .collect();
    out.sort_unstable();
    out
}

fn min_angle_deg(p: [[f64; 3]; 3]) -> f64 {
    let mut best = 180.0f64;
    for a in 0..3 {
        let (u, v) = (sub(p[(a + 1) % 3], p[a]), sub(p[(a + 2) % 3], p[a]));
        let ang = norm2(cross(u, v)).sqrt().atan2(dot(u, v)).to_degrees();
        best = best.min(ang);
    }
    best
}

pub fn check_boundary_angles(m: &ParsedMesh, boundary: &[[u32; 3]]) -> Result<f64, String> {
    if boundary.is_empty() {
        return Err("mesh has no boundary".into());
    }
    let mut worst = 180.0f64;
    for tri in boundary {
        let a = min_angle_deg(tri.map(|v| m.points[v as usize]));
        if a.is_nan() || a < 30.0 - ANGLE_TOL_DEG {
            return Err(format!("boundary triangle {tri:?} has planar angle {a}°"));
        }
        worst = worst.min(a);
    }
    Ok(worst)
}

pub fn check_labels(reference: &Reference, m: &ParsedMesh) -> Result<(), String> {
    let mut present = [false; 256];
    for (i, &l) in m.labels.iter().enumerate() {
        if l == 0 {
            return Err(format!("tetrahedron {i} carries label 0"));
        }
        present[l as usize] = true;
    }
    for &l in &reference.tissues {
        if !present[l as usize] {
            return Err(format!("tissue {l} of the image is missing from the mesh"));
        }
    }
    if let Some(l) = (1..256).find(|&l| present[l] && reference.label_voxels[l] == 0) {
        return Err(format!(
            "mesh carries label {l}, which the image does not have"
        ));
    }
    Ok(())
}

pub fn check_label_volumes(reference: &Reference, m: &ParsedMesh) -> Result<(), String> {
    let mut vol = vec![0.0f64; 256];
    for (t, &l) in m.tets.iter().zip(&m.labels) {
        vol[l as usize] += volume6(corners(m, t)) / 6.0;
    }
    for &l in &reference.tissues {
        let voxels = reference.label_voxels[l as usize] as f64 * reference.voxel_volume;
        let err = (vol[l as usize] - voxels).abs();
        let tol = reference.volume_tolerance(l);
        if err > tol {
            return Err(format!(
                "tissue {l}: mesh volume {} vs voxel volume {voxels} (off by {err}, tolerance {tol})",
                vol[l as usize]
            ));
        }
    }
    Ok(())
}

/// Squared distance from `p` to triangle `t` (closest point after Ericson,
/// Real-Time Collision Detection, 5.1.5).
fn point_triangle_distance2(p: [f64; 3], t: [[f64; 3]; 3]) -> f64 {
    let [a, b, c] = t;
    let (ab, ac, ap) = (sub(b, a), sub(c, a), sub(p, a));
    let (d1, d2) = (dot(ab, ap), dot(ac, ap));
    if d1 <= 0.0 && d2 <= 0.0 {
        return norm2(ap);
    }
    let bp = sub(p, b);
    let (d3, d4) = (dot(ab, bp), dot(ac, bp));
    if d3 >= 0.0 && d4 <= d3 {
        return norm2(bp);
    }
    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let v = d1 / (d1 - d3);
        return norm2(sub(p, lerp(a, b, v)));
    }
    let cp = sub(p, c);
    let (d5, d6) = (dot(ab, cp), dot(ac, cp));
    if d6 >= 0.0 && d5 <= d6 {
        return norm2(cp);
    }
    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let w = d2 / (d2 - d6);
        return norm2(sub(p, lerp(a, c, w)));
    }
    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let w = (d4 - d3) / ((d4 - d3) + (d5 - d6));
        return norm2(sub(p, lerp(b, c, w)));
    }
    let den = 1.0 / (va + vb + vc);
    let (v, w) = (vb * den, vc * den);
    let q: [f64; 3] = std::array::from_fn(|k| a[k] + ab[k] * v + ac[k] * w);
    norm2(sub(p, q))
}

/// Uniform bucket grid over the boundary triangles for nearest queries.
struct TriangleGrid {
    lo: [f64; 3],
    cell: f64,
    n: [usize; 3],
    buckets: Vec<Vec<u32>>,
}

impl TriangleGrid {
    fn new(tris: &[[[f64; 3]; 3]]) -> TriangleGrid {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        let mut edge_sum = 0.0;
        for t in tris {
            for p in t {
                for a in 0..3 {
                    lo[a] = lo[a].min(p[a]);
                    hi[a] = hi[a].max(p[a]);
                }
            }
            edge_sum += norm2(sub(t[1], t[0])).sqrt();
        }
        let mean_edge = edge_sum / tris.len() as f64;
        // About two triangles across a cell, capped at 64^3 cells.
        let extent = (0..3).map(|a| hi[a] - lo[a]).fold(0.0, f64::max);
        let cell = (2.0 * mean_edge).max(extent / 64.0).max(1e-9);
        let n: [usize; 3] = std::array::from_fn(|a| ((hi[a] - lo[a]) / cell) as usize + 1);
        let mut buckets = vec![Vec::new(); n[0] * n[1] * n[2]];
        for (i, t) in tris.iter().enumerate() {
            let (mut a0, mut a1) = ([usize::MAX; 3], [0usize; 3]);
            for p in t {
                for a in 0..3 {
                    let c = (((p[a] - lo[a]) / cell) as usize).min(n[a] - 1);
                    a0[a] = a0[a].min(c);
                    a1[a] = a1[a].max(c);
                }
            }
            for z in a0[2]..=a1[2] {
                for y in a0[1]..=a1[1] {
                    for x in a0[0]..=a1[0] {
                        buckets[x + n[0] * (y + n[1] * z)].push(i as u32);
                    }
                }
            }
        }
        TriangleGrid {
            lo,
            cell,
            n,
            buckets,
        }
    }

    /// Distance from `p` to the nearest triangle: scan rings of cells
    /// outwards, skipping cells farther than the best hit, until the best
    /// hit is nearer than anything outside the rings scanned.
    fn nearest(&self, tris: &[[[f64; 3]; 3]], p: [f64; 3]) -> f64 {
        let home: [isize; 3] =
            std::array::from_fn(|a| ((p[a] - self.lo[a]) / self.cell).floor() as isize);
        let cell_lo = |a: usize, c: isize| self.lo[a] + c as f64 * self.cell;
        let mut best2 = f64::INFINITY;
        let max_ring = (0..3)
            .map(|a| home[a].abs().max((self.n[a] as isize - home[a]).abs()))
            .max()
            .unwrap_or(0);
        for ring in 0..=max_ring {
            for z in home[2] - ring..=home[2] + ring {
                for y in home[1] - ring..=home[1] + ring {
                    for x in home[0] - ring..=home[0] + ring {
                        let c = [x, y, z];
                        let on_shell = (0..3).any(|a| (c[a] - home[a]).abs() == ring);
                        if !on_shell || (0..3).any(|a| c[a] < 0 || c[a] >= self.n[a] as isize) {
                            continue;
                        }
                        let box2: f64 = (0..3)
                            .map(|a| {
                                let lo = cell_lo(a, c[a]);
                                (lo - p[a]).max(p[a] - lo - self.cell).max(0.0).powi(2)
                            })
                            .sum();
                        if box2 >= best2 {
                            continue;
                        }
                        let b = x as usize + self.n[0] * (y as usize + self.n[1] * z as usize);
                        for &t in &self.buckets[b] {
                            best2 = best2.min(point_triangle_distance2(p, tris[t as usize]));
                        }
                    }
                }
            }
            // Everything not yet scanned lies outside the block of cells
            // within `ring` of home.
            let block = (0..3)
                .map(|a| {
                    (p[a] - cell_lo(a, home[a] - ring)).min(cell_lo(a, home[a] + ring + 1) - p[a])
                })
                .fold(f64::INFINITY, f64::min);
            if block >= 0.0 && best2 <= block * block {
                break;
            }
        }
        best2.sqrt()
    }
}

/// Two-sided Hausdorff distance between the mesh boundary and the image's
/// label interfaces, checked against [`Reference::hausdorff_bound`].
///
/// Mesh to image: points on every boundary triangle, spaced at most one
/// (smallest) voxel spacing apart, measured with
/// [`Reference::interface_distance`]. Image to mesh: the center of every
/// interface voxel face, measured to the nearest boundary triangle. Both
/// sides are sampled, so the reported maximum can fall short of the exact
/// one by at most half the diagonal of a voxel face.
pub fn check_fidelity(
    reference: &Reference,
    m: &ParsedMesh,
    boundary: &[[u32; 3]],
) -> Result<f64, String> {
    let h = hausdorff(reference, m, boundary);
    let bound = reference.hausdorff_bound();
    if h.is_nan() || h > bound {
        return Err(format!("Hausdorff distance {h} exceeds the bound {bound}"));
    }
    Ok(h)
}

fn hausdorff(reference: &Reference, m: &ParsedMesh, boundary: &[[u32; 3]]) -> f64 {
    let tris: Vec<[[f64; 3]; 3]> = boundary
        .iter()
        .map(|t| t.map(|v| m.points[v as usize]))
        .collect();
    if tris.is_empty() {
        return f64::INFINITY;
    }
    let step = reference
        .spacing
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let mut worst: f64 = 0.0;
    for t in &tris {
        let longest = (0..3)
            .map(|e| norm2(sub(t[(e + 1) % 3], t[e])).sqrt())
            .fold(0.0, f64::max);
        let n = ((longest / step).ceil() as usize).max(1);
        for i in 0..=n {
            for j in 0..=n - i {
                let (u, v) = (i as f64 / n as f64, j as f64 / n as f64);
                let p: [f64; 3] = std::array::from_fn(|a| {
                    t[0][a] + (t[1][a] - t[0][a]) * u + (t[2][a] - t[0][a]) * v
                });
                worst = worst.max(reference.interface_distance(p));
            }
        }
    }
    let grid = TriangleGrid::new(&tris);
    for &f in &reference.faces {
        worst = worst.max(grid.nearest(&tris, f));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2m_image::phantoms;
    use pi2m_refine::{MesherConfig, MeshingSession};

    /// A real mesh of two nested spheres, its VTK bytes and its reference.
    fn meshed() -> (Reference, Vec<u8>, Expect) {
        let img = phantoms::nested_spheres(20, 1.0);
        let reference = Reference::new(&img, 2.0);
        let cfg = MesherConfig {
            delta: 2.0,
            threads: 1,
            ..Default::default()
        };
        let out = MeshingSession::new(1)
            .mesh(img, cfg)
            .expect("meshing succeeds");
        let mut vtk = Vec::new();
        pi2m_meshio::write_vtk(&out.mesh, &mut vtk).expect("in-memory write");
        let expect = Expect {
            points: Some(out.mesh.num_points()),
            tets: out.mesh.num_tets(),
        };
        (reference, vtk, expect)
    }

    #[test]
    fn a_good_mesh_passes() {
        let (reference, vtk, expect) = meshed();
        let f = check_vtk(&reference, &vtk, expect).expect("the program's mesh passes");
        assert!(f.radius_edge_max <= 2.0 && f.boundary_angle_min_deg >= 30.0 - ANGLE_TOL_DEG);
        assert!(f.hausdorff > 0.0 && f.hausdorff <= reference.hausdorff_bound());
    }

    #[test]
    fn a_flipped_tetrahedron_is_rejected() {
        let (reference, vtk, expect) = meshed();
        let mut m = parse_vtk(&vtk).unwrap();
        m.tets[0].swap(0, 1);
        let e = check_volumes_positive(&m).unwrap_err();
        assert!(e.contains("non-positive volume"), "{e}");
        assert!(check_mesh(&reference, &m, expect).is_err());
    }

    #[test]
    fn a_boundary_vertex_off_the_interface_is_rejected() {
        let (reference, vtk, expect) = meshed();
        let mut m = parse_vtk(&vtk).unwrap();
        let boundary = boundary_triangles(&m);
        assert!(check_fidelity(&reference, &m, &boundary).is_ok());
        // The outermost boundary vertex, pushed further out.
        let v = boundary
            .iter()
            .flatten()
            .map(|&v| v as usize)
            .max_by(|&a, &b| m.points[a][0].total_cmp(&m.points[b][0]))
            .unwrap();
        m.points[v][0] += 2.0 * reference.hausdorff_bound();
        let e = check_fidelity(&reference, &m, &boundary).unwrap_err();
        assert!(e.contains("Hausdorff"), "{e}");
        assert!(check_mesh(&reference, &m, expect).is_err());
    }

    #[test]
    fn a_dropped_label_is_rejected() {
        let (reference, vtk, expect) = meshed();
        let mut m = parse_vtk(&vtk).unwrap();
        let (lo, hi) = (reference.tissues[0], *reference.tissues.last().unwrap());
        assert!(lo != hi, "the phantom has two tissues");
        for l in &mut m.labels {
            if *l == hi {
                *l = lo;
            }
        }
        let e = check_labels(&reference, &m).unwrap_err();
        assert!(e.contains("missing"), "{e}");
        assert!(check_mesh(&reference, &m, expect).is_err());

        let mut m = parse_vtk(&vtk).unwrap();
        m.labels[0] = 0;
        assert!(check_labels(&reference, &m)
            .unwrap_err()
            .contains("label 0"));
    }

    #[test]
    fn a_wrong_tissue_volume_is_rejected() {
        let (reference, vtk, expect) = meshed();
        let good = parse_vtk(&vtk).unwrap();
        assert!(check_label_volumes(&reference, &good).is_ok());
        let (lo, hi) = (reference.tissues[0], *reference.tissues.last().unwrap());

        // Most of the inner tissue relabeled as the outer one: the inner
        // tissue is still present, but has lost most of its volume.
        let mut m = parse_vtk(&vtk).unwrap();
        let inner: Vec<usize> = (0..m.labels.len()).filter(|&i| m.labels[i] == hi).collect();
        for &i in &inner[..inner.len() * 3 / 5] {
            m.labels[i] = lo;
        }
        assert!(check_labels(&reference, &m).is_ok());
        let e = check_label_volumes(&reference, &m).unwrap_err();
        assert!(e.contains(&format!("tissue {hi}")), "{e}");
        assert!(check_mesh(&reference, &m, expect).is_err());

        // The inner tissue's tetrahedra scaled by 1.3 about their centroid
        // (its volume grows by 2.2x); the outer tissue is left as it is.
        let mut m = parse_vtk(&vtk).unwrap();
        let mut verts: Vec<usize> = inner
            .iter()
            .flat_map(|&i| m.tets[i].map(|v| v as usize))
            .collect();
        verts.sort_unstable();
        verts.dedup();
        let c: [f64; 3] = std::array::from_fn(|a| {
            verts.iter().map(|&v| m.points[v][a]).sum::<f64>() / verts.len() as f64
        });
        for &v in &verts {
            m.points[v] = std::array::from_fn(|a| c[a] + 1.3 * (m.points[v][a] - c[a]));
        }
        let e = check_label_volumes(&reference, &m).unwrap_err();
        assert!(e.contains(&format!("tissue {hi}")), "{e}");
    }

    #[test]
    fn a_truncated_vtk_buffer_is_rejected() {
        let (reference, vtk, expect) = meshed();
        for cut in [vtk.len() / 2, vtk.len() - 3, 10] {
            assert!(parse_vtk(&vtk[..cut]).is_err(), "cut at {cut}");
            assert!(check_vtk(&reference, &vtk[..cut], expect).is_err());
        }
        let wrong = Expect {
            tets: expect.tets + 1,
            ..expect
        };
        assert!(check_vtk(&reference, &vtk, wrong)
            .unwrap_err()
            .contains("cells"));
    }

    #[test]
    fn shape_measures() {
        let regular = [
            [1.0, 1.0, 1.0],
            [1.0, -1.0, -1.0],
            [-1.0, 1.0, -1.0],
            [-1.0, -1.0, 1.0],
        ];
        assert!((radius_edge(regular) - 6f64.sqrt() / 4.0).abs() < 1e-12);
        let needle = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.1, 0.0]];
        assert!(min_angle_deg(needle) < 6.0);
        let m = ParsedMesh {
            points: vec![
                [0.0, 0.0, 0.0],
                [10.0, 0.0, 0.0],
                [0.0, 0.1, 0.0],
                [0.0, 0.0, 1.0],
            ],
            tets: vec![[0, 1, 2, 3]],
            labels: vec![1],
        };
        assert!(check_boundary_angles(&m, &boundary_triangles(&m)).is_err());
        assert!(check_radius_edge(&m).is_err());
    }

    #[test]
    fn interface_distance_of_a_cube() {
        // A 4x4x4 image with a 2x2x2 block of label 1 in the middle.
        let img = pi2m_image::LabeledImage::from_fn([4, 4, 4], [1.0; 3], |p| {
            let inside = |c: f64| (1.0..3.0).contains(&c);
            u8::from(inside(p.x) && inside(p.y) && inside(p.z))
        });
        let r = Reference::new(&img, 1.0);
        assert_eq!(r.tissues, vec![1]);
        assert!((r.interface_distance([2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((r.interface_distance([2.0, 2.0, 0.5]) - 0.5).abs() < 1e-12);
        assert!(r.interface_distance([1.0, 2.0, 2.0]) < 1e-12);
        assert!((r.label_area[1] - 24.0).abs() < 1e-12);
    }
}
