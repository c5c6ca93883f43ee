//! Offline stand-in for `serde_json`: the crates under `crates/` name it as a
//! dependency but call it only from their own tests, which `perf/` never
//! builds. JSON under `perf/` goes through `vtx_obs::json`.
