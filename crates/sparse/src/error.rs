//! Error type shared by the sparse-matrix substrate.

use std::fmt;

/// Errors produced while constructing, converting or using sparse matrices.
#[derive(Debug)]
pub enum SparseError {
    /// An entry referenced a row or column outside the matrix dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows in the matrix.
        nrows: usize,
        /// Number of columns in the matrix.
        ncols: usize,
    },
    /// A row of a CSR matrix whose column indices are not strictly increasing.
    UnsortedRow {
        /// The row.
        row: usize,
        /// The first column index not greater than the one before it.
        col: usize,
    },
    /// A row count, non-zero count or column index that the 32-bit CSR structure
    /// cannot hold.
    IndexTooWide {
        /// What did not fit.
        what: &'static str,
        /// Its value.
        value: usize,
    },
    /// Two containers that must agree in length (e.g. triplet arrays) did not.
    LengthMismatch {
        /// Description of what was being compared.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A vector passed to an operation has the wrong dimension.
    DimensionMismatch {
        /// Description of the operation.
        what: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// The Matrix Market file could not be parsed.
    MatrixMarket(String),
    /// Underlying I/O error while reading or writing a file.
    Io(std::io::Error),
    /// A parameter was invalid (e.g. a zero block size).
    InvalidParameter(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) is outside the {nrows}x{ncols} matrix"
            ),
            SparseError::UnsortedRow { row, col } => write!(
                f,
                "row {row}: column {col} does not follow the one before it in increasing order"
            ),
            SparseError::IndexTooWide { what, value } => {
                write!(f, "{what} {value} does not fit the 32-bit CSR structure")
            }
            SparseError::LengthMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what}: expected length {expected}, got {actual}")
            }
            SparseError::DimensionMismatch {
                what,
                expected,
                actual,
            } => {
                write!(f, "{what}: expected dimension {expected}, got {actual}")
            }
            SparseError::MatrixMarket(msg) => write!(f, "Matrix Market parse error: {msg}"),
            SparseError::Io(err) => write!(f, "I/O error: {err}"),
            SparseError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(err: std::io::Error) -> Self {
        SparseError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 5,
            col: 7,
            nrows: 4,
            ncols: 4,
        };
        assert!(e.to_string().contains("(5, 7)"));
        assert!(e.to_string().contains("4x4"));

        let e = SparseError::LengthMismatch {
            what: "values",
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("values"));

        let e = SparseError::DimensionMismatch {
            what: "spmv input",
            expected: 10,
            actual: 9,
        };
        assert!(e.to_string().contains("spmv input"));

        let e = SparseError::UnsortedRow { row: 3, col: 2 };
        assert!(e.to_string().contains("row 3: column 2"));

        let e = SparseError::IndexTooWide {
            what: "column index",
            value: usize::MAX,
        };
        assert!(e.to_string().contains("column index") && e.to_string().contains("32-bit"));

        let e = SparseError::MatrixMarket("bad header".into());
        assert!(e.to_string().contains("bad header"));

        let e = SparseError::InvalidParameter("block size must be > 0".into());
        assert!(e.to_string().contains("block size"));
    }

    #[test]
    fn io_error_is_wrapped_and_sourced() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing.mtx");
        let e: SparseError = io.into();
        assert!(e.to_string().contains("missing.mtx"));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
