//! # ksir-types
//!
//! Core data model shared by every crate in the `ksir` workspace.
//!
//! The k-SIR paper (Wang, Li, Tan — EDBT 2019) models a *social stream* as a
//! sequence of *social elements* `⟨ts, doc, ref⟩`: a timestamp, a bag-of-words
//! document drawn from a vocabulary, and a set of references to earlier
//! elements (retweets, citations, comment parents, …).  Queries and elements
//! are both projected into a `z`-dimensional *topic space*; a query is a
//! normalised preference vector over topics.
//!
//! This crate defines those primitives:
//!
//! * strongly-typed identifiers ([`ElementId`], [`WordId`], [`TopicId`]) and
//!   [`Timestamp`]s, plus [`IdMap`] / [`IdSet`], the maps keyed by them,
//! * [`Document`] — a bag of words with frequencies,
//! * [`SocialElement`] — the stream item,
//! * [`TopicVector`] / [`QueryVector`] — distributions over topics,
//! * [`Vocabulary`] — the word ⇄ id mapping,
//! * [`KsirError`] — the shared error type, and
//! * small deterministic-randomness helpers used by tests and generators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod element;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod topic_model;
pub mod vector;
pub mod vocab;

pub use element::{Document, SocialElement, SocialElementBuilder};
pub use error::{KsirError, Result};
pub use hash::{IdHasher, IdMap, IdSet, IdState};
pub use ids::{ElementId, Timestamp, TopicId, WordId};
pub use topic_model::{DenseTopicWordTable, TopicWordDistribution};
pub use vector::{QueryVector, TopicVector};
pub use vocab::Vocabulary;
