//! Offline-first standard-library compatibility layer.
//!
//! Every crate in this workspace compiles against the facades in this
//! crate instead of depending on crates.io directly, so the whole
//! reproduction builds and tests with an empty cargo registry:
//!
//! - [`rng`] — deterministic pseudo-random numbers (SplitMix64 seeding,
//!   xoshiro256++ generation) replacing `rand`.
//! - [`json`] — a minimal JSON value, parser and serializer plus the
//!   [`json::ToJson`]/[`json::FromJson`] traits replacing
//!   `serde`/`serde_json` for the types that round-trip to disk.
//! - [`sync`] — poison-transparent [`sync::Mutex`]/[`sync::RwLock`]
//!   replacing `parking_lot`.
//! - [`channel`] — bounded/unbounded MPSC channels replacing
//!   `crossbeam::channel`.
//! - [`pool`] — scoped worker pools replacing `crossbeam::thread`.
//!
//! Every backend is the standard library's (or in-tree code on top of
//! it): there is one configuration, and seeded runs and saved models
//! depend on nothing outside the repository.

pub mod channel;
pub mod json;
pub mod pool;
pub mod rng;
pub mod sync;

pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::{Rng, SplitMix64, StdRng, Xoshiro256PlusPlus};
