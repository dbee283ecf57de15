//! Array views and bindings: Fortran by-reference array passing and
//! sequence association for section arguments.
//!
//! Scalar bindings live in the slot-indexed frame in `exec.rs` (resolved
//! by `lower.rs`); this module keeps the shared-storage array machinery.

use crate::value::{ArrayStorage, Scalar};
use std::cell::RefCell;
use std::rc::Rc;

/// A view into shared array storage: the whole array, or — for section
/// arguments passed to procedures — a contiguous window starting at
/// `offset` with `len` elements (Fortran sequence association: the callee
/// overlays its own declared shape onto the window).
#[derive(Debug, Clone)]
pub struct ArrayHandle {
    pub storage: Rc<RefCell<ArrayStorage>>,
    pub offset: usize,
    pub len: usize,
}

impl ArrayHandle {
    pub fn whole(storage: Rc<RefCell<ArrayStorage>>) -> ArrayHandle {
        let len = storage.borrow().len();
        ArrayHandle {
            storage,
            offset: 0,
            len,
        }
    }

    pub fn window(&self, offset: usize, len: usize) -> ArrayHandle {
        assert!(
            offset + len <= self.len,
            "window {offset}+{len} exceeds view of {} elements",
            self.len
        );
        ArrayHandle {
            storage: Rc::clone(&self.storage),
            offset: self.offset + offset,
            len,
        }
    }

    /// Identity of the underlying allocation (for buffer-reuse tracking).
    pub fn alloc_id(&self) -> usize {
        Rc::as_ptr(&self.storage) as usize
    }
}

/// An array *binding*: a view plus the shape the current procedure uses to
/// index it. For local arrays the shape matches the storage; for array
/// parameters the callee's declared shape overlays the passed window
/// (Fortran sequence association).
#[derive(Debug, Clone)]
pub struct BoundArray {
    pub handle: ArrayHandle,
    bounds: Vec<(i64, i64)>,
    strides: Vec<usize>,
}

impl BoundArray {
    /// Overlay `bounds` onto `handle`. Fails if the shape needs more
    /// elements than the view provides.
    pub fn from_shape(handle: ArrayHandle, bounds: Vec<(i64, i64)>) -> Result<Self, String> {
        let mut strides = Vec::with_capacity(bounds.len());
        let mut acc: usize = 1;
        for &(lo, hi) in &bounds {
            strides.push(acc);
            acc = acc
                .checked_mul((hi - lo + 1).max(0) as usize)
                .ok_or_else(|| "array shape overflows".to_string())?;
        }
        if acc > handle.len {
            return Err(format!(
                "declared shape needs {acc} elements but only {} are passed",
                handle.len
            ));
        }
        Ok(BoundArray {
            handle,
            bounds,
            strides,
        })
    }

    pub fn rank(&self) -> usize {
        self.bounds.len()
    }

    pub fn bounds(&self) -> &[(i64, i64)] {
        &self.bounds
    }

    pub fn extent(&self, dim: usize) -> usize {
        let (lo, hi) = self.bounds[dim];
        (hi - lo + 1).max(0) as usize
    }

    /// Total elements of the declared shape.
    pub fn shape_len(&self) -> usize {
        self.bounds.iter().map(|&(lo, hi)| (hi - lo + 1).max(0) as usize).product()
    }

    /// Flat offset (within the view) of a subscript vector against the
    /// bound shape. Ranks 1 and 2 — nearly every access — are straight
    /// code; all ranks make the same checks in the same order.
    #[inline]
    pub fn flat(&self, name: &str, indices: &[i64]) -> Result<usize, crate::value::BoundsError> {
        let fail = |d: usize| {
            let (lower, upper) = self.bounds[d];
            crate::value::BoundsError {
                array: name.to_string(),
                dim: d,
                index: indices[d],
                lower,
                upper,
            }
        };
        match (indices, self.bounds.as_slice()) {
            (&[i], &[(lo, hi)]) => {
                if i < lo || i > hi {
                    return Err(fail(0));
                }
                Ok((i - lo) as usize)
            }
            (&[i, j], &[(lo0, hi0), (lo1, hi1)]) => {
                if i < lo0 || i > hi0 {
                    return Err(fail(0));
                }
                if j < lo1 || j > hi1 {
                    return Err(fail(1));
                }
                Ok((i - lo0) as usize + (j - lo1) as usize * self.strides[1])
            }
            _ => {
                let mut off = 0usize;
                for (d, (&ix, &(lo, hi))) in indices.iter().zip(&self.bounds).enumerate() {
                    if ix < lo || ix > hi {
                        return Err(fail(d));
                    }
                    off += (ix - lo) as usize * self.strides[d];
                }
                Ok(off)
            }
        }
    }

    pub fn get(&self, name: &str, indices: &[i64]) -> Result<Scalar, crate::value::BoundsError> {
        let off = self.flat(name, indices)?;
        Ok(self.handle.storage.borrow().data.get(self.handle.offset + off))
    }

    pub fn set(
        &self,
        name: &str,
        indices: &[i64],
        v: Scalar,
    ) -> Result<usize, crate::value::BoundsError> {
        let off = self.flat(name, indices)?;
        let abs = self.handle.offset + off;
        self.handle.storage.borrow_mut().data.set(abs, v);
        Ok(abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Scalar;
    use fir::ast::ScalarType;

    #[test]
    fn whole_and_window_share_storage() {
        let st = Rc::new(RefCell::new(ArrayStorage::new(
            "a",
            ScalarType::Integer,
            vec![(1, 10)],
        )));
        let whole = ArrayHandle::whole(Rc::clone(&st));
        let win = whole.window(4, 3);
        win.storage.borrow_mut().data.set(4, Scalar::Int(99));
        assert_eq!(st.borrow().data.get(4), Scalar::Int(99));
        assert_eq!(win.offset, 4);
        assert_eq!(win.len, 3);
        assert_eq!(whole.alloc_id(), win.alloc_id());
    }

    #[test]
    #[should_panic(expected = "exceeds view")]
    fn window_overflow_panics() {
        let st = Rc::new(RefCell::new(ArrayStorage::new(
            "a",
            ScalarType::Integer,
            vec![(1, 4)],
        )));
        let whole = ArrayHandle::whole(st);
        let _ = whole.window(2, 3);
    }

    #[test]
    fn nested_window_offsets_compose() {
        let st = Rc::new(RefCell::new(ArrayStorage::new(
            "a",
            ScalarType::Integer,
            vec![(1, 10)],
        )));
        let w1 = ArrayHandle::whole(st).window(2, 6);
        let w2 = w1.window(3, 2);
        assert_eq!(w2.offset, 5);
    }

    #[test]
    fn bound_array_shape_overlay() {
        let st = Rc::new(RefCell::new(ArrayStorage::new(
            "a",
            ScalarType::Integer,
            vec![(1, 6)],
        )));
        let whole = ArrayHandle::whole(st);
        // Overlay a 2x3 shape onto the 6-element window.
        let b = BoundArray::from_shape(whole.clone(), vec![(1, 2), (1, 3)]).unwrap();
        assert_eq!(b.rank(), 2);
        assert_eq!(b.shape_len(), 6);
        b.set("a", &[2, 1], Scalar::Int(7)).unwrap();
        assert_eq!(b.get("a", &[2, 1]).unwrap(), Scalar::Int(7));
        // A shape needing more elements than the window fails.
        assert!(BoundArray::from_shape(whole, vec![(1, 7)]).is_err());
    }
}
