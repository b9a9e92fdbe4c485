//! # parlo-analysis — the paper's burden model
//!
//! The one piece of analysis the paper needs: the scheduling burden `d` of a runtime,
//! fitted from measured speedups under the model `S = T / (d + T/P)`.
//!
//! * [`amdahl`] — the model and its least-squares fit (Table 1's `d` values);
//! * [`stats`] — the ordinary least-squares line fit [`linear_fit`].

#![warn(missing_docs)]

pub mod amdahl;
pub mod stats;

pub use amdahl::{fit_burden, model_speedup, BurdenFit, BurdenMeasurement};
pub use stats::linear_fit;
