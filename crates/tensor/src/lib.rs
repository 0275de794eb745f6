//! Minimal CPU tensor/NN substrate for the HET reproduction.
//!
//! The original HET builds on the Hetu DL runtime (C++/CUDA). The trainer
//! only needs the runtime for three things: correct forward/backward math
//! for the dense parts of embedding models, an SGD update, and a FLOP
//! count for the simulated-compute cost model. This crate provides
//! exactly that: row-major `Matrix` math, `Linear`/`Mlp` layers, the
//! Deep&Cross `CrossLayer`, the factorization-machine interaction layer,
//! logistic and softmax losses, and visitor-based parameter traversal
//! (used by the trainer for SGD and gradient AllReduce).
//!
//! All layers store the activations they need for backward, so the usage
//! contract is the usual one: `forward` then `backward` on the same
//! instance, one batch at a time (each simulated worker owns its own
//! model replica, so no sharing is needed). Everything a layer does not
//! have to keep is a [`Scratch`] loan from a per-thread pool, so a step
//! at a repeated shape allocates nothing; all three matrix products run
//! on one kernel with a fixed accumulation order (see [`matrix`]).

#![warn(missing_docs)]

pub mod activation;
pub mod cross;
pub mod fm;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod params;
pub mod scratch;

pub use cross::CrossLayer;
pub use fm::FmInteraction;
pub use layers::{Linear, Mlp};
pub use matrix::Matrix;
pub use optim::Sgd;
pub use params::{FlatGrads, FlatParams, HasParams, ParamVisitor};
pub use scratch::Scratch;
