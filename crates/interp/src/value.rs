//! Runtime values: scalars and column-major array storage.

use fir::ast::ScalarType;
use std::fmt;

/// A scalar runtime value. Integer→real promotion happens at use sites;
/// real→integer requires an explicit `int()`/`floor()` in the source except
/// when storing into an integer array/variable (Fortran truncation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    Int(i64),
    Real(f64),
}

impl Scalar {
    pub fn ty(self) -> ScalarType {
        match self {
            Scalar::Int(_) => ScalarType::Integer,
            Scalar::Real(_) => ScalarType::Real,
        }
    }

    pub fn as_real(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Real(v) => v,
        }
    }

    /// Integer view; reals truncate toward zero (Fortran assignment rule).
    pub fn truncate_to_int(self) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Real(v) => v.trunc() as i64,
        }
    }

    /// Strict integer view for contexts that must be integers (subscripts,
    /// bounds, ranks, tags) — validation guarantees these, so a real here
    /// is an interpreter bug, not a user error.
    pub fn expect_int(self, what: &str) -> i64 {
        match self {
            Scalar::Int(v) => v,
            Scalar::Real(v) => panic!("{what}: expected integer, got real {v}"),
        }
    }

    /// Coerce to the given storage type (Fortran assignment conversion).
    pub fn convert_to(self, ty: ScalarType) -> Scalar {
        match ty {
            ScalarType::Integer => Scalar::Int(self.truncate_to_int()),
            ScalarType::Real => Scalar::Real(self.as_real()),
        }
    }

    pub fn is_true(self) -> bool {
        match self {
            Scalar::Int(v) => v != 0,
            Scalar::Real(v) => v != 0.0,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Real(v) => write!(f, "{v:?}"),
        }
    }
}

/// Homogeneous element storage.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    Int(Vec<i64>),
    Real(Vec<f64>),
}

impl Data {
    pub fn zeros(ty: ScalarType, len: usize) -> Data {
        match ty {
            ScalarType::Integer => Data::Int(vec![0; len]),
            ScalarType::Real => Data::Real(vec![0.0; len]),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Data::Int(v) => v.len(),
            Data::Real(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> ScalarType {
        match self {
            Data::Int(_) => ScalarType::Integer,
            Data::Real(_) => ScalarType::Real,
        }
    }

    pub fn get(&self, i: usize) -> Scalar {
        match self {
            Data::Int(v) => Scalar::Int(v[i]),
            Data::Real(v) => Scalar::Real(v[i]),
        }
    }

    pub fn set(&mut self, i: usize, s: Scalar) {
        match self {
            Data::Int(v) => v[i] = s.truncate_to_int(),
            Data::Real(v) => v[i] = s.as_real(),
        }
    }

    /// Element `i` as raw 8-byte word (an `f64` as its bits) — the
    /// register code's view, which knows the element type statically.
    pub(crate) fn bits(&self, i: usize) -> u64 {
        match self {
            Data::Int(v) => v[i] as u64,
            Data::Real(v) => v[i].to_bits(),
        }
    }

    /// Store a raw word already converted to this storage's element type.
    pub(crate) fn set_bits(&mut self, i: usize, bits: u64) {
        match self {
            Data::Int(v) => v[i] = bits as i64,
            Data::Real(v) => v[i] = f64::from_bits(bits),
        }
    }
}

/// A column-major array with Fortran bounds `lower..=upper` per dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayStorage {
    pub name: String,
    bounds: Vec<(i64, i64)>,
    /// Column-major strides (stride[0] == 1).
    strides: Vec<usize>,
    pub data: Data,
}

/// Subscript errors become rank panics with this context attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundsError {
    pub array: String,
    pub dim: usize,
    pub index: i64,
    pub lower: i64,
    pub upper: i64,
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "subscript {} of `{}` out of bounds in dimension {}: valid {}..={}",
            self.index,
            self.array,
            self.dim + 1,
            self.lower,
            self.upper
        )
    }
}

impl ArrayStorage {
    pub fn new(name: &str, ty: ScalarType, bounds: Vec<(i64, i64)>) -> ArrayStorage {
        let mut strides = Vec::with_capacity(bounds.len());
        let mut acc: usize = 1;
        for &(lo, hi) in &bounds {
            strides.push(acc);
            let extent = (hi - lo + 1).max(0) as usize;
            acc = acc.checked_mul(extent).expect("array too large");
        }
        ArrayStorage {
            name: name.to_string(),
            bounds,
            strides,
            data: Data::zeros(ty, acc),
        }
    }

    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn ty(&self) -> ScalarType {
        self.data.ty()
    }

    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    pub fn extent(&self, dim: usize) -> usize {
        let (lo, hi) = self.bounds[dim];
        (hi - lo + 1).max(0) as usize
    }

    /// Column-major flat offset of a subscript vector.
    pub fn flat_index(&self, indices: &[i64]) -> Result<usize, BoundsError> {
        assert_eq!(
            indices.len(),
            self.bounds.len(),
            "rank mismatch on `{}` (validated earlier)",
            self.name
        );
        let mut off = 0usize;
        for (d, (&ix, &(lo, hi))) in indices.iter().zip(&self.bounds).enumerate() {
            if ix < lo || ix > hi {
                return Err(BoundsError {
                    array: self.name.clone(),
                    dim: d,
                    index: ix,
                    lower: lo,
                    upper: hi,
                });
            }
            off += (ix - lo) as usize * self.strides[d];
        }
        Ok(off)
    }

    pub fn get(&self, indices: &[i64]) -> Result<Scalar, BoundsError> {
        Ok(self.data.get(self.flat_index(indices)?))
    }

    pub fn set(&mut self, indices: &[i64], v: Scalar) -> Result<(), BoundsError> {
        let i = self.flat_index(indices)?;
        self.data.set(i, v);
        Ok(())
    }

    /// Encode `count` elements starting at flat offset as little-endian
    /// 8-byte words.
    pub fn encode(&self, offset: usize, count: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(count * 8);
        match &self.data {
            Data::Int(v) => {
                for x in &v[offset..offset + count] {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Data::Real(v) => {
                for x in &v[offset..offset + count] {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
        }
        out
    }

    /// Decode bytes produced by [`encode`](Self::encode) into elements
    /// starting at flat offset. The wire format is raw 8-byte words; the
    /// *receiver's* element type interprets them (DESIGN.md §2 notes this
    /// matches Fortran/MPI untyped-buffer behaviour).
    pub fn decode_into(&mut self, offset: usize, bytes: &[u8]) {
        assert_eq!(bytes.len() % 8, 0, "payload not 8-byte aligned");
        match &mut self.data {
            Data::Int(v) => {
                for (i, w) in bytes.chunks_exact(8).enumerate() {
                    v[offset + i] = i64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                }
            }
            Data::Real(v) => {
                for (i, w) in bytes.chunks_exact(8).enumerate() {
                    v[offset + i] = f64::from_bits(u64::from_le_bytes(
                        w.try_into().expect("8-byte chunk"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions() {
        assert_eq!(Scalar::Int(3).as_real(), 3.0);
        assert_eq!(Scalar::Real(3.9).truncate_to_int(), 3);
        assert_eq!(Scalar::Real(-3.9).truncate_to_int(), -3);
        assert_eq!(
            Scalar::Real(2.5).convert_to(ScalarType::Integer),
            Scalar::Int(2)
        );
        assert!(Scalar::Int(1).is_true());
        assert!(!Scalar::Int(0).is_true());
    }

    #[test]
    fn column_major_layout() {
        // a(1:2, 1:3): strides (1, 2); a(2,1) is flat 1, a(1,2) is flat 2.
        let a = ArrayStorage::new("a", ScalarType::Integer, vec![(1, 2), (1, 3)]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.flat_index(&[1, 1]).unwrap(), 0);
        assert_eq!(a.flat_index(&[2, 1]).unwrap(), 1);
        assert_eq!(a.flat_index(&[1, 2]).unwrap(), 2);
        assert_eq!(a.flat_index(&[2, 3]).unwrap(), 5);
    }

    #[test]
    fn custom_lower_bounds() {
        let a = ArrayStorage::new("a", ScalarType::Real, vec![(0, 4)]);
        assert_eq!(a.len(), 5);
        assert_eq!(a.flat_index(&[0]).unwrap(), 0);
        assert_eq!(a.flat_index(&[4]).unwrap(), 4);
    }

    #[test]
    fn bounds_violation_reported() {
        let a = ArrayStorage::new("a", ScalarType::Integer, vec![(1, 4)]);
        let err = a.flat_index(&[5]).unwrap_err();
        assert_eq!(err.index, 5);
        assert_eq!(err.upper, 4);
        assert!(err.to_string().contains("`a`"));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = ArrayStorage::new("a", ScalarType::Real, vec![(1, 3)]);
        a.set(&[2], Scalar::Real(2.5)).unwrap();
        assert_eq!(a.get(&[2]).unwrap(), Scalar::Real(2.5));
        // Integer stored into real array promotes.
        a.set(&[1], Scalar::Int(7)).unwrap();
        assert_eq!(a.get(&[1]).unwrap(), Scalar::Real(7.0));
    }

    #[test]
    fn encode_decode_real() {
        let mut a = ArrayStorage::new("a", ScalarType::Real, vec![(1, 4)]);
        for i in 1..=4 {
            a.set(&[i], Scalar::Real(i as f64 * 1.5)).unwrap();
        }
        let bytes = a.encode(1, 2); // elements 2 and 3
        let mut b = ArrayStorage::new("b", ScalarType::Real, vec![(1, 4)]);
        b.decode_into(2, &bytes);
        assert_eq!(b.get(&[3]).unwrap(), Scalar::Real(3.0));
        assert_eq!(b.get(&[4]).unwrap(), Scalar::Real(4.5));
    }

    #[test]
    fn encode_decode_int() {
        let mut a = ArrayStorage::new("a", ScalarType::Integer, vec![(1, 3)]);
        a.set(&[1], Scalar::Int(-9)).unwrap();
        let bytes = a.encode(0, 1);
        let mut b = ArrayStorage::new("b", ScalarType::Integer, vec![(1, 3)]);
        b.decode_into(1, &bytes);
        assert_eq!(b.get(&[2]).unwrap(), Scalar::Int(-9));
    }

    #[test]
    fn zero_extent_dimension() {
        let a = ArrayStorage::new("a", ScalarType::Integer, vec![(1, 0)]);
        assert_eq!(a.len(), 0);
        assert!(a.flat_index(&[1]).is_err());
    }
}
