//! The Section 3.3 feature-engineering pipeline.
//!
//! The pipeline turns raw 1040-metric vectors `M_{I,t}` into the model's
//! feature vectors `x_{I,t}` via six steps (Section 3.3.7):
//!
//! 1. binary CPU/MEM level features + kind-aware scaling ([`base`]);
//! 2. normalization (`StandardScaler`);
//! 3. first reduction: per-dataset random-forest filtering (union of
//!    top-30 lists) or PCA ([`reduce`]);
//! 4. time-dependent `X-AVG`/`X-LAG` variants ([`timefeat`]) and
//!    multiplicative cross-domain products ([`combine`]);
//! 5. second reduction (filtering or PCA);
//! 6. zero-variance removal.
//!
//! A fitted pipeline is compiled into a [`ServingPlan`] ([`plan`]) that
//! the online and batch transforms run on: only the columns the model
//! reads are computed, and only the columns a time feature reads keep
//! history.

pub mod base;
pub mod combine;
pub mod pipeline;
pub mod plan;
pub mod reduce;
pub mod timefeat;

pub use base::{BaseExpander, RawLayout};
pub use combine::{domain_of, Domain};
pub use pipeline::{
    FeaturePipeline, FittedPipeline, InstanceTransformer, PipelineConfig, TransformScratch,
};
pub use plan::ServingPlan;
pub use reduce::Reduction;
pub use timefeat::{TimeExpander, TIME_LAGS};
