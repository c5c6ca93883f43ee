//! Offline stand-in for `serde`: the trait names exist so that
//! `use serde::{Deserialize, Serialize}` resolves, and the derives of the
//! same names (from the `serde_derive` stand-in) expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de> {}
