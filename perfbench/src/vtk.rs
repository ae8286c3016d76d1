//! A strict reader for the legacy-VTK unstructured grids `write_vtk` emits.
//!
//! The benchmark checks the bytes a user receives, not the in-memory mesh,
//! so every check starts here. Any deviation from the expected layout
//! (short sections, a truncated buffer, a non-tetrahedral cell, an index out
//! of range) is an error.

/// A tetrahedral mesh as read back from VTK bytes.
#[derive(Clone, Debug, Default)]
pub struct ParsedMesh {
    pub points: Vec<[f64; 3]>,
    pub tets: Vec<[u32; 4]>,
    /// Tissue label of each tetrahedron (the `tissue` cell scalar).
    pub labels: Vec<u8>,
}

struct Lines<'a> {
    it: std::str::Lines<'a>,
    line: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.line += 1;
        self.it
            .next()
            .ok_or_else(|| format!("vtk: input ends at line {} before {what}", self.line))
    }

    /// The next line, which must read `keyword` followed by fields.
    fn section(&mut self, keyword: &str) -> Result<Vec<&'a str>, String> {
        let l = self.next(keyword)?;
        let mut f = l.split_whitespace();
        if f.next() != Some(keyword) {
            return Err(format!(
                "vtk: line {} is {l:?}, expected {keyword}",
                self.line
            ));
        }
        Ok(f.collect())
    }

    fn expect(&mut self, text: &str) -> Result<(), String> {
        let l = self.next(text)?;
        if l.trim() != text {
            return Err(format!(
                "vtk: line {} is {l:?}, expected {text:?}",
                self.line
            ));
        }
        Ok(())
    }
}

fn num<T: std::str::FromStr>(s: Option<&str>, line: usize) -> Result<T, String> {
    s.and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("vtk: bad number at line {line}"))
}

/// Parse VTK bytes into points, tetrahedra and labels.
pub fn parse_vtk(bytes: &[u8]) -> Result<ParsedMesh, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("vtk: not UTF-8: {e}"))?;
    let mut l = Lines {
        it: text.lines(),
        line: 0,
    };
    let magic = l.next("the header")?;
    if !magic.starts_with("# vtk DataFile") {
        return Err("vtk: bad magic".into());
    }
    l.next("the title")?;
    l.expect("ASCII")?;
    l.expect("DATASET UNSTRUCTURED_GRID")?;

    let f = l.section("POINTS")?;
    let n_points: usize = num(f.first().copied(), l.line)?;
    let mut points = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        let s = l.next("a point")?;
        let mut it = s.split_whitespace();
        let p = [
            num(it.next(), l.line)?,
            num(it.next(), l.line)?,
            num(it.next(), l.line)?,
        ];
        if it.next().is_some() || !p.iter().all(|c: &f64| c.is_finite()) {
            return Err(format!("vtk: bad point at line {}", l.line));
        }
        points.push(p);
    }

    let f = l.section("CELLS")?;
    let n_cells: usize = num(f.first().copied(), l.line)?;
    let size: usize = num(f.get(1).copied(), l.line)?;
    if size != n_cells * 5 {
        return Err(format!("vtk: CELLS size {size} is not 5 x {n_cells}"));
    }
    let mut tets = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let s = l.next("a cell")?;
        let mut it = s.split_whitespace();
        if it.next() != Some("4") {
            return Err(format!("vtk: cell at line {} is not a tetrahedron", l.line));
        }
        let mut t = [0u32; 4];
        for v in &mut t {
            *v = num(it.next(), l.line)?;
            if *v as usize >= n_points {
                return Err(format!(
                    "vtk: vertex index {v} out of range at line {}",
                    l.line
                ));
            }
        }
        tets.push(t);
    }

    let f = l.section("CELL_TYPES")?;
    if num::<usize>(f.first().copied(), l.line)? != n_cells {
        return Err("vtk: CELL_TYPES count differs from CELLS".into());
    }
    for _ in 0..n_cells {
        if l.next("a cell type")?.trim() != "10" {
            return Err(format!(
                "vtk: cell type at line {} is not VTK_TETRA",
                l.line
            ));
        }
    }

    let f = l.section("CELL_DATA")?;
    if num::<usize>(f.first().copied(), l.line)? != n_cells {
        return Err("vtk: CELL_DATA count differs from CELLS".into());
    }
    l.section("SCALARS")?;
    l.section("LOOKUP_TABLE")?;
    let mut labels = Vec::with_capacity(n_cells);
    for _ in 0..n_cells {
        let s = l.next("a label")?;
        labels.push(num(Some(s.trim()), l.line)?);
    }
    if l.it.any(|rest| !rest.trim().is_empty()) {
        return Err("vtk: trailing data after the last label".into());
    }
    Ok(ParsedMesh {
        points,
        tets,
        labels,
    })
}
