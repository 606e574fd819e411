//! Dense tensor substrate for the Guided Tensor Lifting reproduction.
//!
//! This crate provides the three data-plane primitives every other crate in
//! the workspace builds on:
//!
//! - [`Rat`] — exact rational arithmetic (the paper verifies equivalence
//!   over rational datatypes rather than floats, §7);
//! - [`Shape`] / [`Tensor`] — dense row-major tensors of any rank,
//!   including rank-0 scalars;
//! - [`TensorGen`] — deterministic (seeded) random tensor generation used
//!   for I/O examples and Schwartz–Zippel verification points.
//!
//! # Example
//!
//! ```
//! use gtl_tensor::{Rat, Shape, Tensor, TensorGen};
//!
//! // A 2x2 rational matrix.
//! let m = Tensor::from_ints(Shape::new(vec![2, 2]), &[1, 2, 3, 4]);
//! assert_eq!(m[&[1, 1][..]], Rat::from(4));
//!
//! // Deterministic random inputs for a benchmark.
//! let mut gen = TensorGen::from_label("gemv");
//! let x = gen.int_tensor(Shape::new(vec![4]), -5, 5);
//! assert_eq!(x.shape().len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod random;
mod rat;
mod shape;
mod tensor;

pub use random::{seed_from_label, TensorGen};
pub use rat::{Rat, RatError};
pub use shape::{IndexIter, Shape};
pub use tensor::Tensor;
