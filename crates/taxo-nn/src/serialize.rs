//! Generic parameter (de)serialisation for any [`Module`].
//!
//! Parameters are visited in the module's stable `visit_params` order and
//! written as a small framed binary format (magic, version, per-tensor
//! shape + little-endian `f32` payload). Optimiser state and gradients
//! are deliberately transient: a reload gives exactly the forward
//! behaviour, which is what deployment needs.
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use taxo_nn::{load_params, save_params, Linear, Matrix};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut a = Linear::new(4, 2, &mut rng);
//! let bytes = save_params(&mut a);
//!
//! let mut b = Linear::new(4, 2, &mut rng); // different init
//! load_params(&mut b, &bytes).unwrap();
//! let x = Matrix::zeros(1, 4);
//! let (mut ya, mut yb) = (Matrix::default(), Matrix::default());
//! a.forward_into(&x, &mut ya);
//! b.forward_into(&x, &mut yb);
//! assert_eq!(ya, yb);
//! ```

use crate::{Matrix, Module, Param};
use std::fmt;

const MAGIC: &[u8; 4] = b"TXNN";
const VERSION: u32 = 1;

/// Errors from [`load_params`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The byte stream does not start with the expected magic/version.
    BadHeader,
    /// The stream ended mid-tensor.
    Truncated,
    /// A stored tensor's shape does not match the module's parameter.
    ShapeMismatch {
        index: usize,
        expected: (usize, usize),
        found: (usize, usize),
    },
    /// The stream holds a different number of tensors than the module.
    CountMismatch { expected: usize, found: usize },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BadHeader => write!(f, "bad header (not a TXNN v1 stream)"),
            LoadError::Truncated => write!(f, "truncated stream"),
            LoadError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index}: expected {}x{}, found {}x{}",
                expected.0, expected.1, found.0, found.1
            ),
            LoadError::CountMismatch { expected, found } => {
                write!(f, "expected {expected} tensors, found {found}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Serialises every parameter value of `module`.
pub fn save_params(module: &mut dyn Module) -> Vec<u8> {
    let mut tensors: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    module.visit_params(&mut |p: &mut Param| {
        tensors.push((p.value.rows(), p.value.cols(), p.value.data().to_vec()));
    });
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(tensors.len() as u64).to_le_bytes());
    for (rows, cols, data) in tensors {
        out.extend_from_slice(&(rows as u64).to_le_bytes());
        out.extend_from_slice(&(cols as u64).to_le_bytes());
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        if self.pos + n > self.bytes.len() {
            return Err(LoadError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
}

/// Restores parameter values saved by [`save_params`] into `module`,
/// whose architecture (parameter count and shapes) must match.
pub fn load_params(module: &mut dyn Module, bytes: &[u8]) -> Result<(), LoadError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC || r.u32()? != VERSION {
        return Err(LoadError::BadHeader);
    }
    let count = r.u64()? as usize;
    let mut tensors: Vec<Matrix> = Vec::with_capacity(count);
    for _ in 0..count {
        let rows = r.u64()? as usize;
        let cols = r.u64()? as usize;
        let raw = r.take(rows * cols * 4)?;
        let data: Vec<f32> = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        tensors.push(Matrix::from_vec(rows, cols, data));
    }

    // First pass: validate shapes before mutating anything.
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    module.visit_params(&mut |p: &mut Param| shapes.push((p.value.rows(), p.value.cols())));
    if shapes.len() != tensors.len() {
        return Err(LoadError::CountMismatch {
            expected: shapes.len(),
            found: tensors.len(),
        });
    }
    for (i, (shape, t)) in shapes.iter().zip(&tensors).enumerate() {
        if *shape != (t.rows(), t.cols()) {
            return Err(LoadError::ShapeMismatch {
                index: i,
                expected: *shape,
                found: (t.rows(), t.cols()),
            });
        }
    }

    // Second pass: write values and clear transient state.
    let mut it = tensors.into_iter();
    module.visit_params(&mut |p: &mut Param| {
        let t = it.next().expect("counts validated");
        p.value = t;
        p.zero_grad();
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncoderConfig, EncoderCtx, Mlp, TransformerEncoder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_restores_forward_behaviour() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut enc = TransformerEncoder::new(EncoderConfig::tiny(30), &mut rng);
        let bytes = save_params(&mut enc);

        let mut rng2 = StdRng::seed_from_u64(99);
        let mut enc2 = TransformerEncoder::new(EncoderConfig::tiny(30), &mut rng2);
        let ids = [1u32, 7, 9, 2];
        let hidden = |enc: &TransformerEncoder| {
            let mut ctx = EncoderCtx::default();
            enc.forward_ctx(&ids, None, &mut ctx);
            ctx.hidden().clone()
        };
        assert_ne!(hidden(&enc), hidden(&enc2));
        load_params(&mut enc2, &bytes).unwrap();
        assert_eq!(hidden(&enc), hidden(&enc2));
    }

    #[test]
    fn rejects_garbage() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut mlp = Mlp::new(3, 4, &mut rng);
        assert_eq!(
            load_params(&mut mlp, b"not a stream"),
            Err(LoadError::BadHeader)
        );
        let mut bytes = save_params(&mut mlp);
        bytes.truncate(bytes.len() - 3);
        assert_eq!(load_params(&mut mlp, &bytes), Err(LoadError::Truncated));
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut small = Mlp::new(3, 4, &mut rng);
        let mut big = Mlp::new(5, 4, &mut rng);
        let bytes = save_params(&mut small);
        match load_params(&mut big, &bytes) {
            Err(LoadError::ShapeMismatch { index: 0, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        let mut tiny_enc = TransformerEncoder::new(EncoderConfig::tiny(10), &mut rng);
        match load_params(&mut tiny_enc, &bytes) {
            Err(LoadError::CountMismatch { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(LoadError::BadHeader.to_string().contains("TXNN"));
        assert!(LoadError::Truncated.to_string().contains("truncated"));
    }
}
