//! Matrix Market (`.mtx`) reader and writer.
//!
//! The paper's workloads come from the SuiteSparse collection, which distributes
//! matrices in the Matrix Market exchange format [Boisvert et al.].  This module
//! implements the subset needed for those inputs: the `coordinate` format with
//! `real` / `integer` / `pattern` fields and `general` / `symmetric` /
//! `skew-symmetric` symmetry, plus the dense `array` format for completeness.
//!
//! The synthetic generators in `refloat-matgen` are the default workload source, but
//! any SuiteSparse matrix downloaded separately can be dropped in via [`read_coo`] /
//! [`read_coo_from_str`].

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Result;

/// How values are stored in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// One floating-point value per entry.
    Real,
    /// One integer value per entry (parsed into `f64`).
    Integer,
    /// No value token: every stored entry is `1.0`.
    Pattern,
}

impl Field {
    /// The keyword used in the `%%MatrixMarket` header line.
    pub fn keyword(&self) -> &'static str {
        match self {
            Field::Real => "real",
            Field::Integer => "integer",
            Field::Pattern => "pattern",
        }
    }
}

/// Symmetry annotation of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    /// All entries stored explicitly.
    General,
    /// Lower triangle stored; `(c, r)` mirrors `(r, c)`.
    Symmetric,
    /// Strictly-lower triangle stored; `(c, r)` mirrors `-(r, c)`.  Diagonal entries
    /// are structurally zero and must not appear in the file.
    SkewSymmetric,
}

impl Symmetry {
    /// The keyword used in the `%%MatrixMarket` header line.
    pub fn keyword(&self) -> &'static str {
        match self {
            Symmetry::General => "general",
            Symmetry::Symmetric => "symmetric",
            Symmetry::SkewSymmetric => "skew-symmetric",
        }
    }
}

/// Reads a Matrix Market file into a [`CooMatrix`].
pub fn read_coo<P: AsRef<Path>>(path: P) -> Result<CooMatrix> {
    let file = File::open(path)?;
    read_coo_from_reader(BufReader::new(file))
}

/// Parses Matrix Market text into a [`CooMatrix`].
pub fn read_coo_from_str(text: &str) -> Result<CooMatrix> {
    read_coo_from_reader(BufReader::new(text.as_bytes()))
}

/// Reads a Matrix Market stream into a [`CooMatrix`].
pub fn read_coo_from_reader<R: Read>(reader: BufReader<R>) -> Result<CooMatrix> {
    let mut lines = reader.lines();

    // --- Header line: %%MatrixMarket matrix <format> <field> <symmetry>
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break line;
                }
            }
            None => return Err(SparseError::MatrixMarket("empty file".into())),
        }
    };
    let header_lc = header.to_ascii_lowercase();
    let tokens: Vec<&str> = header_lc.split_whitespace().collect();
    if tokens.len() < 5 || !tokens[0].starts_with("%%matrixmarket") || tokens[1] != "matrix" {
        return Err(SparseError::MatrixMarket(format!(
            "bad header line: {header}"
        )));
    }
    let coordinate = match tokens[2] {
        "coordinate" => true,
        "array" => false,
        other => {
            return Err(SparseError::MatrixMarket(format!(
                "unsupported format '{other}'"
            )));
        }
    };
    let field = match tokens[3] {
        "real" | "double" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(SparseError::MatrixMarket(format!(
                "unsupported field '{other}'"
            )));
        }
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::MatrixMarket(format!(
                "unsupported symmetry '{other}'"
            )));
        }
    };
    if !coordinate && field == Field::Pattern {
        return Err(SparseError::MatrixMarket(
            "array format cannot be 'pattern'".into(),
        ));
    }

    // --- Size line (skipping comments).
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => return Err(SparseError::MatrixMarket("missing size line".into())),
        }
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|_| bad_num(t)))
        .collect::<Result<_>>()?;

    // Largest pre-allocation a declared size may ask for.
    const CAPACITY_CAP: usize = 1 << 22;
    if coordinate {
        if dims.len() != 3 {
            return Err(SparseError::MatrixMarket(format!(
                "bad coordinate size line: {size_line}"
            )));
        }
        let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
        // A mirrored entry must land inside the matrix.
        if symmetry != Symmetry::General && nrows != ncols {
            return Err(SparseError::MatrixMarket(format!(
                "{} coordinate matrix must be square, got {nrows}x{ncols}",
                symmetry.keyword()
            )));
        }
        // Symmetric entries mirror into two triplets.  The size line is untrusted
        // input, and capacity is only an optimization: saturate the doubling (no
        // arithmetic overflow) and cap the pre-allocation so an absurd declared nnz
        // cannot abort the process with a huge allocation — real entries beyond the
        // cap just grow the vectors amortized, and the entry-count check at the end
        // rejects the lie.
        let mut coo =
            CooMatrix::with_capacity(nrows, ncols, nnz.saturating_mul(2).min(CAPACITY_CAP));
        let mut read_entries = 0usize;
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let r: usize = parse_tok(it.next(), "row index")?;
            let c: usize = parse_tok(it.next(), "column index")?;
            if r == 0 || c == 0 || r > nrows || c > ncols {
                return Err(SparseError::MatrixMarket(format!(
                    "entry ({r}, {c}) outside 1-based {nrows}x{ncols} bounds"
                )));
            }
            let v = match field {
                Field::Pattern => 1.0,
                Field::Real | Field::Integer => {
                    let tok = it
                        .next()
                        .ok_or_else(|| SparseError::MatrixMarket("missing value".into()))?;
                    tok.parse::<f64>().map_err(|_| bad_num(tok))?
                }
            };
            let (r0, c0) = (r - 1, c - 1);
            match symmetry {
                Symmetry::General => coo.push(r0, c0, v),
                Symmetry::Symmetric => {
                    coo.push(r0, c0, v);
                    if r0 != c0 {
                        coo.push(c0, r0, v);
                    }
                }
                Symmetry::SkewSymmetric => {
                    // A = −Aᵀ forces a zero diagonal, so the Matrix Market format
                    // forbids storing diagonal entries of skew-symmetric matrices.
                    // Accepting one silently used to corrupt A (a nonzero diagonal
                    // value has no mirrored negation, so A ≠ −Aᵀ afterwards).
                    if r0 == c0 {
                        return Err(SparseError::MatrixMarket(format!(
                            "explicit diagonal entry ({r}, {c}) is illegal in a \
                             skew-symmetric matrix"
                        )));
                    }
                    coo.push(r0, c0, v);
                    coo.push(c0, r0, -v);
                }
            }
            read_entries += 1;
        }
        if read_entries != nnz {
            return Err(SparseError::MatrixMarket(format!(
                "expected {nnz} entries, found {read_entries}"
            )));
        }
        Ok(coo)
    } else {
        // Dense array format: column-major values.
        if dims.len() != 2 {
            return Err(SparseError::MatrixMarket(format!(
                "bad array size line: {size_line}"
            )));
        }
        let (nrows, ncols) = (dims[0], dims[1]);
        // The size line is untrusted here too: the value count is checked
        // arithmetic (a typed error, not an overflow panic) and only a capped
        // capacity hint — the count check below rejects a file that lied.
        let expected = match symmetry {
            Symmetry::General => nrows.checked_mul(ncols),
            // Lower triangle including the diagonal.
            Symmetry::Symmetric => {
                if nrows != ncols {
                    return Err(SparseError::MatrixMarket(
                        "symmetric array matrix must be square".into(),
                    ));
                }
                nrows
                    .checked_add(1)
                    .and_then(|n1| nrows.checked_mul(n1))
                    .map(|twice| twice / 2)
            }
            // Strictly-lower triangle: the diagonal of a skew-symmetric matrix is
            // structurally zero and is not stored.
            Symmetry::SkewSymmetric => {
                if nrows != ncols {
                    return Err(SparseError::MatrixMarket(
                        "skew-symmetric array matrix must be square".into(),
                    ));
                }
                nrows
                    .checked_mul(nrows.saturating_sub(1))
                    .map(|twice| twice / 2)
            }
        }
        .ok_or_else(|| {
            SparseError::MatrixMarket(format!("array size {nrows}x{ncols} overflows"))
        })?;
        let mut values = Vec::with_capacity(expected.min(CAPACITY_CAP));
        for line in lines {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('%') {
                continue;
            }
            for tok in t.split_whitespace() {
                values.push(tok.parse::<f64>().map_err(|_| bad_num(tok))?);
            }
        }
        if values.len() != expected {
            return Err(SparseError::MatrixMarket(format!(
                "expected {expected} array values, found {}",
                values.len()
            )));
        }
        // The general walk goes over the values, not the declared dimensions: a `0 × N`
        // array holds none, whatever `N` says.  A symmetric one's order is bounded by
        // its value count, checked above.
        let mut coo = CooMatrix::with_capacity(nrows, ncols, values.len());
        match symmetry {
            Symmetry::General => {
                for (k, &v) in values.iter().enumerate() {
                    coo.push(k % nrows, k / nrows, v);
                }
            }
            Symmetry::Symmetric => {
                let mut k = 0;
                for c in 0..ncols {
                    for r in c..nrows {
                        let v = values[k];
                        coo.push(r, c, v);
                        if r != c {
                            coo.push(c, r, v);
                        }
                        k += 1;
                    }
                }
            }
            Symmetry::SkewSymmetric => {
                let mut k = 0;
                for c in 0..ncols {
                    for r in (c + 1)..nrows {
                        let v = values[k];
                        coo.push(r, c, v);
                        coo.push(c, r, -v);
                        k += 1;
                    }
                }
            }
        }
        Ok(coo)
    }
}

fn bad_num(tok: &str) -> SparseError {
    SparseError::MatrixMarket(format!("could not parse number '{tok}'"))
}

fn parse_tok(tok: Option<&str>, what: &str) -> Result<usize> {
    let tok = tok.ok_or_else(|| SparseError::MatrixMarket(format!("missing {what}")))?;
    tok.parse::<usize>().map_err(|_| bad_num(tok))
}

/// Writes a [`CooMatrix`] as a `coordinate real general` Matrix Market file.
pub fn write_coo<P: AsRef<Path>>(path: P, a: &CooMatrix, comment: &str) -> Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    write_coo_to_writer(&mut w, a, comment)
}

/// Writes a [`CooMatrix`] in Matrix Market format to any writer.
pub fn write_coo_to_writer<W: Write>(w: &mut W, a: &CooMatrix, comment: &str) -> Result<()> {
    write_coo_as(w, a, Field::Real, Symmetry::General, comment)
}

/// Writes a [`CooMatrix`] in `coordinate` Matrix Market format with an explicit field
/// and symmetry annotation.
///
/// For [`Symmetry::Symmetric`] only the lower triangle (`r ≥ c`) is stored; for
/// [`Symmetry::SkewSymmetric`] only the strictly-lower triangle (`r > c`).  The caller
/// is responsible for the matrix actually having the claimed symmetry — the writer
/// keeps the lower triangle and drops the mirrored entries, exactly the inverse of what
/// [`read_coo_from_reader`] reconstructs.  [`Field::Integer`] values are written
/// rounded to the nearest integer; [`Field::Pattern`] entries carry no value token.
///
/// Returns an error when a symmetric/skew-symmetric annotation is requested for a
/// non-square matrix, or when a skew-symmetric matrix stores a nonzero diagonal entry
/// (illegal in the format, see the reader).
pub fn write_coo_as<W: Write>(
    w: &mut W,
    a: &CooMatrix,
    field: Field,
    symmetry: Symmetry,
    comment: &str,
) -> Result<()> {
    if symmetry != Symmetry::General && a.nrows() != a.ncols() {
        return Err(SparseError::MatrixMarket(format!(
            "{} matrices must be square, got {}x{}",
            symmetry.keyword(),
            a.nrows(),
            a.ncols()
        )));
    }
    let keep = |r: usize, c: usize| match symmetry {
        Symmetry::General => true,
        Symmetry::Symmetric => r >= c,
        Symmetry::SkewSymmetric => r > c,
    };
    if symmetry == Symmetry::SkewSymmetric {
        for (r, c, v) in a.iter() {
            if r == c && v != 0.0 {
                return Err(SparseError::MatrixMarket(format!(
                    "skew-symmetric matrix has nonzero diagonal entry ({r}, {r})"
                )));
            }
        }
    }
    writeln!(
        w,
        "%%MatrixMarket matrix coordinate {} {}",
        field.keyword(),
        symmetry.keyword()
    )?;
    for line in comment.lines() {
        writeln!(w, "% {line}")?;
    }
    let stored = a.iter().filter(|&(r, c, _)| keep(r, c)).count();
    writeln!(w, "{} {} {}", a.nrows(), a.ncols(), stored)?;
    for (r, c, v) in a.iter() {
        if !keep(r, c) {
            continue;
        }
        match field {
            Field::Real => writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?,
            Field::Integer => writeln!(w, "{} {} {}", r + 1, c + 1, v.round() as i64)?,
            Field::Pattern => writeln!(w, "{} {}", r + 1, c + 1)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_coordinate_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 2 3.5\n\
                    3 1 -1.0\n\
                    3 3 1e-3\n";
        let a = read_coo_from_str(text).unwrap();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.nnz(), 4);
        let csr = a.to_csr();
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(2, 0), -1.0);
        assert_eq!(csr.get(2, 2), 1e-3);
    }

    #[test]
    fn parses_symmetric_and_mirrors_offdiagonals() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    3 3 3\n\
                    1 1 4.0\n\
                    2 1 -1.0\n\
                    3 3 2.0\n";
        let a = read_coo_from_str(text).unwrap();
        assert_eq!(a.nnz(), 4); // the (2,1) entry is mirrored to (1,2)
        let csr = a.to_csr();
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(1, 0), -1.0);
        assert!(csr.is_symmetric(0.0));
    }

    #[test]
    fn parses_skew_symmetric() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    2 1 3.0\n";
        let a = read_coo_from_str(text).unwrap();
        let csr = a.to_csr();
        assert_eq!(csr.get(1, 0), 3.0);
        assert_eq!(csr.get(0, 1), -3.0);
    }

    #[test]
    fn parses_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 2\n\
                    1 2\n\
                    2 1\n";
        let a = read_coo_from_str(text).unwrap();
        assert_eq!(a.values(), &[1.0, 1.0]);
    }

    #[test]
    fn parses_dense_array_general() {
        let text = "%%MatrixMarket matrix array real general\n\
                    2 2\n\
                    1.0\n3.0\n2.0\n4.0\n";
        let a = read_coo_from_str(text).unwrap();
        let csr = a.to_csr();
        // Column-major: [[1, 2], [3, 4]]
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(1, 0), 3.0);
        assert_eq!(csr.get(0, 1), 2.0);
        assert_eq!(csr.get(1, 1), 4.0);
    }

    #[test]
    fn parses_dense_array_symmetric() {
        let text = "%%MatrixMarket matrix array real symmetric\n\
                    2 2\n\
                    1.0\n5.0\n2.0\n";
        let a = read_coo_from_str(text).unwrap();
        let csr = a.to_csr();
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(1, 0), 5.0);
        assert_eq!(csr.get(0, 1), 5.0);
        assert_eq!(csr.get(1, 1), 2.0);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(read_coo_from_str("").is_err());
        assert!(read_coo_from_str("%%MatrixMarket matrix coordinate real general\n").is_err());
        assert!(read_coo_from_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3.0\n"
        )
        .is_err());
        assert!(read_coo_from_str(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n"
        )
        .is_err());
        assert!(read_coo_from_str(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n"
        )
        .is_err());
    }

    #[test]
    fn absurd_declared_nnz_is_rejected_without_huge_preallocation() {
        // The size line is untrusted: a declared quintillion entries must surface as
        // a parse error (entry-count mismatch), not a process-aborting allocation.
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 1000000000000000000\n\
                    1 1 3.0\n";
        let err = read_coo_from_str(text).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }

    #[test]
    fn absurd_array_size_lines_are_typed_errors_without_huge_preallocation() {
        // nrows·ncols (and n·(n+1)/2) overflow usize: a typed error, not a panic.
        for symmetry in ["general", "symmetric", "skew-symmetric"] {
            let text = format!(
                "%%MatrixMarket matrix array real {symmetry}\n\
                 99999999999 99999999999\n1.0\n"
            );
            let err = read_coo_from_str(&text).unwrap_err();
            assert!(err.to_string().contains("overflows"), "{symmetry}: {err}");
        }
        // Representable but absurd (9e9 values): the capacity hint is capped and the
        // value-count check rejects the lie.
        let text = "%%MatrixMarket matrix array real general\n3000000000 3\n1.0\n";
        let err = read_coo_from_str(text).unwrap_err();
        assert!(err.to_string().contains("expected 9000000000"), "{err}");
    }

    #[test]
    fn an_empty_array_with_a_huge_declared_width_returns_at_once() {
        // Zero rows hold no values: the reader must not walk the declared columns.
        let text = "%%MatrixMarket matrix array real general\n0 18446744073709551615\n";
        let a = read_coo_from_str(text).unwrap();
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (0, usize::MAX, 0));
    }

    #[test]
    fn a_non_square_symmetric_coordinate_file_is_an_error_not_a_panic() {
        // (5, 1) would mirror to (1, 5), outside a 5 × 2 matrix.
        for symmetry in ["symmetric", "skew-symmetric"] {
            let text =
                format!("%%MatrixMarket matrix coordinate real {symmetry}\n5 2 1\n5 1 1.0\n");
            let err = read_coo_from_str(&text).unwrap_err();
            assert!(err.to_string().contains("square"), "{symmetry}: {err}");
        }
    }

    #[test]
    fn rejects_explicit_skew_symmetric_diagonal() {
        // Illegal per the format; accepting it silently used to corrupt A ≠ −Aᵀ.
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 2\n\
                    2 1 3.0\n\
                    2 2 1.0\n";
        let err = read_coo_from_str(text).unwrap_err();
        assert!(err.to_string().contains("skew-symmetric"), "{err}");
        // Even a zero-valued diagonal entry is structurally illegal.
        let zero_diag = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                         2 2 1\n\
                         1 1 0.0\n";
        assert!(read_coo_from_str(zero_diag).is_err());
    }

    #[test]
    fn parses_dense_array_skew_symmetric_without_diagonal() {
        // Strictly-lower triangle only: 3 values for a 3x3 skew matrix.
        let text = "%%MatrixMarket matrix array real skew-symmetric\n\
                    3 3\n\
                    1.0\n2.0\n3.0\n";
        let a = read_coo_from_str(text).unwrap();
        let csr = a.to_csr();
        assert_eq!(csr.get(1, 0), 1.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(2, 0), 2.0);
        assert_eq!(csr.get(2, 1), 3.0);
        assert_eq!(csr.get(1, 2), -3.0);
        assert_eq!(csr.get(0, 0), 0.0);
        // The full lower triangle (4 values would include a diagonal slot) is malformed.
        let with_diag = "%%MatrixMarket matrix array real skew-symmetric\n\
                         3 3\n\
                         0.0\n1.0\n2.0\n3.0\n";
        assert!(read_coo_from_str(with_diag).is_err());
    }

    #[test]
    fn writer_supports_symmetry_and_field_annotations() {
        // A symmetric matrix: write lower triangle, read back the full matrix.
        let mut sym = CooMatrix::new(3, 3);
        sym.push(0, 0, 2.0);
        sym.push(1, 0, -1.0);
        sym.push(0, 1, -1.0);
        sym.push(2, 2, 4.0);
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &sym, Field::Real, Symmetry::Symmetric, "sym").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("coordinate real symmetric"));
        assert_eq!(read_coo_from_str(&text).unwrap().to_csr(), sym.to_csr());

        // Skew-symmetric: strictly-lower triangle only, nonzero diagonal rejected.
        let mut skew = CooMatrix::new(2, 2);
        skew.push(1, 0, 3.0);
        skew.push(0, 1, -3.0);
        let mut buf = Vec::new();
        write_coo_as(&mut buf, &skew, Field::Integer, Symmetry::SkewSymmetric, "").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("coordinate integer skew-symmetric"));
        assert_eq!(read_coo_from_str(&text).unwrap().to_csr(), skew.to_csr());

        let mut bad = CooMatrix::new(2, 2);
        bad.push(0, 0, 1.0);
        let mut buf = Vec::new();
        assert!(write_coo_as(&mut buf, &bad, Field::Real, Symmetry::SkewSymmetric, "").is_err());

        // Non-square symmetric annotation is rejected.
        let rect = CooMatrix::new(2, 3);
        let mut buf = Vec::new();
        assert!(write_coo_as(&mut buf, &rect, Field::Real, Symmetry::Symmetric, "").is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_index_the_csr_structure_cannot_hold_is_a_typed_error_on_conversion() {
        let header = "%%MatrixMarket matrix coordinate real general\n1 99999999999 1\n";
        let too_wide = |entry: &str| {
            let coo = read_coo_from_str(&format!("{header}{entry}\n")).unwrap();
            crate::CsrMatrix::try_from_coo(&coo)
        };
        let err = too_wide("1 4294967297 2.5");
        assert!(
            matches!(
                err,
                Err(SparseError::IndexTooWide {
                    what: "column index",
                    value: 4294967296
                })
            ),
            "{err:?}"
        );
        // Column 2^32 − 1 (1-based 2^32) is the greatest a `u32` holds: it converts, and
        // the blocking refuses the column count.
        let last = too_wide("1 4294967296 2.5").unwrap();
        assert_eq!(last.col_idx(), &[u32::MAX]);
        assert!(crate::BlockedMatrix::from_csr(&last, 7).is_err());
        let tall = read_coo_from_str("%%MatrixMarket matrix array real general\n4294967296 0\n");
        let err = crate::CsrMatrix::try_from_coo(&tall.unwrap());
        assert!(
            matches!(
                err,
                Err(SparseError::IndexTooWide {
                    what: "row count",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    mod hostile {
        use super::super::*;
        use proptest::prelude::*;
        use std::time::{Duration, Instant};

        /// Reads `bytes` both ways — as a stream, and lossily decoded as text — and
        /// asserts that each returns, `Ok` or `Err`, without a panic and quickly; an `Ok`
        /// read converts to CSR or is refused with a typed error, and a converted one
        /// is blocked, or refused, at `b` = 1 and 7.
        fn reads_without_panic(bytes: &[u8]) {
            // refloat-analysis: allow(wall-clock-in-deterministic-path) — a time limit
            // on a parse, which decides no result.
            let started = Instant::now();
            let text = String::from_utf8_lossy(bytes);
            for read in [
                read_coo_from_reader(BufReader::new(bytes)),
                read_coo_from_str(&text),
            ] {
                if let Ok(csr) = read.and_then(|coo| crate::CsrMatrix::try_from_coo(&coo)) {
                    for b in [1, 7] {
                        let _ = crate::BlockedMatrix::from_csr(&csr, b);
                    }
                }
            }
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(2),
                "{took:?} on {:?}",
                String::from_utf8_lossy(bytes)
            );
        }

        const FORMATS: [&str; 3] = ["coordinate", "array", "dense"];
        const FIELDS: [&str; 5] = ["real", "integer", "pattern", "double", "complex"];
        const SYMMETRIES: [&str; 4] = ["general", "symmetric", "skew-symmetric", "hermitian"];
        /// Size-line and index tokens: small, boundary, huge, negative and malformed.
        const NUMBERS: [&str; 12] = [
            "0",
            "1",
            "2",
            "3",
            "7",
            "4294967296",
            "99999999999",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
            "x",
            "1e3",
        ];
        const VALUES: [&str; 7] = ["1.5", "-2", "nan", "inf", "1e308", "0x1", ""];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_bytes_are_read_without_panic(
                bytes in proptest::collection::vec(0u8..=255, 0..300),
                with_header in proptest::bool::ANY,
            ) {
                let mut data = Vec::new();
                if with_header {
                    data.extend_from_slice(b"%%MatrixMarket matrix coordinate real general\n");
                }
                data.extend(bytes);
                reads_without_panic(&data);
            }

            #[test]
            fn mutated_files_are_read_without_panic(
                (format, field, symmetry) in (0usize..3, 0usize..5, 0usize..4),
                (drop_header_token, banner) in (0usize..8, proptest::bool::ANY),
                size in proptest::collection::vec(0usize..12, 0..5),
                entries in proptest::collection::vec((0usize..12, 0usize..12, 0usize..7), 0..12),
                (arity, comments) in (0usize..5, proptest::bool::ANY),
            ) {
                let mut header = vec![
                    if banner { "%%MatrixMarket" } else { "%MatrixMarket" },
                    "matrix",
                    FORMATS[format],
                    FIELDS[field],
                    SYMMETRIES[symmetry],
                ];
                if drop_header_token < header.len() {
                    header.remove(drop_header_token);
                }
                let mut text = header.join(" ") + "\n";
                if comments {
                    text += "% a comment\n\n";
                }
                text += &size.iter().map(|&k| NUMBERS[k]).collect::<Vec<_>>().join(" ");
                text += "\n";
                // Entries with the tokens a coordinate line has, or fewer, or more.
                let arity = [3, 3, 2, 1, 4][arity];
                for &(r, c, v) in &entries {
                    text += &[NUMBERS[r], NUMBERS[c], VALUES[v], "9"][..arity].join(" ");
                    text += "\n";
                }
                reads_without_panic(text.as_bytes());
            }
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = CooMatrix::new(4, 3);
        a.push(0, 0, 1.25);
        a.push(3, 2, -7.5e-11);
        a.push(1, 1, 3.0);
        let mut buf = Vec::new();
        write_coo_to_writer(&mut buf, &a, "roundtrip test").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let b = read_coo_from_str(&text).unwrap();
        assert_eq!(a.to_csr(), b.to_csr());
    }
}
