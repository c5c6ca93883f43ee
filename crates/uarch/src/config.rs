//! Microarchitecture configurations — Table IV of the paper.
//!
//! The baseline mirrors Sniper's `gainestown` core (the paper's default) and
//! the four variants each attack one Top-down bottleneck class:
//!
//! | Config     | Change vs baseline                                   | Targets |
//! |------------|------------------------------------------------------|---------|
//! | `fe_op`    | 64 KiB L1i, 256-entry iTLB                           | front-end stalls |
//! | `be_op1`   | 64 KiB L1d, 512 KiB L2, 4 MiB L3 + 16 MiB L4         | back-end (memory) |
//! | `be_op2`   | 256-entry ROB, 72-entry RS, issue-at-dispatch        | back-end (core)   |
//! | `bs_op`    | TAGE instead of the Pentium-M hybrid                 | bad speculation   |

use crate::branch::PredictorKind;
use crate::cache::CacheParams;
use crate::prefetch::PrefetcherKind;
use crate::ConfigError;

/// A complete core + memory-hierarchy configuration (one column of Table IV).
#[derive(Debug, Clone, PartialEq)]
pub struct UarchConfig {
    /// Configuration name as used in the paper ("baseline", "fe_op", ...).
    pub name: String,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// Unified L2.
    pub l2: CacheParams,
    /// Unified L3 (last level unless `l4` is present).
    pub l3: CacheParams,
    /// Optional L4 (only `be_op1` has one).
    pub l4: Option<CacheParams>,
    /// Instruction TLB entries.
    pub itlb_entries: u32,
    /// Reorder buffer entries.
    pub rob_size: u32,
    /// Reservation station entries.
    pub rs_size: u32,
    /// Store buffer entries.
    pub sb_size: u32,
    /// Pipeline dispatch width (uops per cycle).
    pub dispatch_width: u32,
    /// Whether uops issue in the same cycle they dispatch (Table IV's
    /// "issue at dispatch"); removes the dispatch→issue bubble.
    pub issue_at_dispatch: bool,
    /// Branch direction predictor.
    pub predictor: PredictorKind,
    /// L1d hardware prefetcher (extension; Table IV implies none).
    pub l1d_prefetcher: PrefetcherKind,
    /// Core frequency in GHz (the paper's Xeon E3 runs at 3.5 GHz).
    pub freq_ghz: f64,
    /// DRAM access latency in cycles.
    pub mem_latency: u32,
    /// Branch misprediction pipeline-refill penalty in cycles.
    pub mispredict_penalty: u32,
    /// iTLB miss (page walk) penalty in cycles.
    pub itlb_miss_penalty: u32,
}

impl UarchConfig {
    /// The default configuration provided by Sniper, Gainestown.
    pub fn baseline() -> Self {
        UarchConfig {
            name: "baseline".to_owned(),
            l1d: CacheParams::new(32, 8, 4),
            l1i: CacheParams::new(32, 4, 1),
            l2: CacheParams::new(256, 8, 12),
            l3: CacheParams::new(8192, 16, 36),
            l4: None,
            itlb_entries: 128,
            rob_size: 128,
            rs_size: 36,
            sb_size: 36,
            dispatch_width: 4,
            issue_at_dispatch: false,
            predictor: PredictorKind::PentiumM,
            l1d_prefetcher: PrefetcherKind::None,
            freq_ghz: 3.5,
            mem_latency: 200,
            mispredict_penalty: 15,
            itlb_miss_penalty: 30,
        }
    }

    /// `fe_op`: larger L1i and iTLB to reduce front-end stalls.
    pub fn fe_op() -> Self {
        UarchConfig {
            name: "fe_op".to_owned(),
            l1i: CacheParams::new(64, 4, 1),
            itlb_entries: 256,
            ..Self::baseline()
        }
    }

    /// `be_op1`: larger data caches (plus a 16 MiB L4) to reduce memory-bound
    /// back-end stalls.
    pub(crate) fn be_op1() -> Self {
        UarchConfig {
            name: "be_op1".to_owned(),
            l1d: CacheParams::new(64, 8, 4),
            l2: CacheParams::new(512, 8, 12),
            l3: CacheParams::new(4096, 16, 36),
            l4: Some(CacheParams::new(16384, 16, 90)),
            ..Self::baseline()
        }
    }

    /// `be_op2`: larger window (ROB/RS) and issue-at-dispatch to reduce
    /// core-bound back-end stalls.
    pub fn be_op2() -> Self {
        UarchConfig {
            name: "be_op2".to_owned(),
            rob_size: 256,
            rs_size: 72,
            issue_at_dispatch: true,
            ..Self::baseline()
        }
    }

    /// `bs_op`: TAGE branch predictor to reduce bad-speculation stalls.
    pub fn bs_op() -> Self {
        UarchConfig {
            name: "bs_op".to_owned(),
            predictor: PredictorKind::Tage,
            ..Self::baseline()
        }
    }

    /// All five Table IV configurations, baseline first.
    pub fn table_iv() -> Vec<UarchConfig> {
        vec![
            Self::baseline(),
            Self::fe_op(),
            Self::be_op1(),
            Self::be_op2(),
            Self::bs_op(),
        ]
    }

    /// The four modified (non-baseline) configurations.
    pub fn modified_configs() -> Vec<UarchConfig> {
        Self::table_iv().into_iter().skip(1).collect()
    }

    /// Validates every sub-component's geometry.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any cache, TLB, or pipeline
    /// parameter.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.l1d.validate()?;
        self.l1i.validate()?;
        self.l2.validate()?;
        self.l3.validate()?;
        if let Some(l4) = self.l4 {
            l4.validate()?;
        }
        for (what, v) in [
            ("rob_size", self.rob_size),
            ("rs_size", self.rs_size),
            ("sb_size", self.sb_size),
            ("dispatch_width", self.dispatch_width),
            ("itlb_entries", self.itlb_entries),
        ] {
            if v == 0 {
                return Err(ConfigError::Zero { what });
            }
        }
        Ok(())
    }

    /// `try_`-style finisher for hand-built configs: validates and returns
    /// the config by value, so struct-update construction can end in one
    /// fallible call instead of a separate `validate()` the caller may
    /// forget:
    ///
    /// ```
    /// # use vtx_uarch::config::UarchConfig;
    /// let cfg = UarchConfig {
    ///     rob_size: 192,
    ///     ..UarchConfig::baseline()
    /// }
    /// .validated()
    /// .expect("geometry is sound");
    /// assert_eq!(cfg.rob_size, 192);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`UarchConfig::validate`].
    pub fn validated(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_matches_paper() {
        let b = UarchConfig::baseline();
        assert_eq!(b.l1d.size_bytes, 32 * 1024);
        assert_eq!(b.l1i.size_bytes, 32 * 1024);
        assert_eq!(b.l2.size_bytes, 256 * 1024);
        assert_eq!(b.l3.size_bytes, 8192 * 1024);
        assert!(b.l4.is_none());
        assert_eq!(b.itlb_entries, 128);
        assert_eq!(b.rob_size, 128);
        assert_eq!(b.rs_size, 36);
        assert!(!b.issue_at_dispatch);
        assert_eq!(b.predictor, PredictorKind::PentiumM);

        let fe = UarchConfig::fe_op();
        assert_eq!(fe.l1i.size_bytes, 64 * 1024);
        assert_eq!(fe.itlb_entries, 256);
        assert_eq!(fe.l1d, b.l1d);

        let be1 = UarchConfig::be_op1();
        assert_eq!(be1.l1d.size_bytes, 64 * 1024);
        assert_eq!(be1.l2.size_bytes, 512 * 1024);
        assert_eq!(be1.l3.size_bytes, 4096 * 1024);
        assert_eq!(be1.l4.unwrap().size_bytes, 16384 * 1024);

        let be2 = UarchConfig::be_op2();
        assert_eq!(be2.rob_size, 256);
        assert_eq!(be2.rs_size, 72);
        assert!(be2.issue_at_dispatch);

        let bs = UarchConfig::bs_op();
        assert_eq!(bs.predictor, PredictorKind::Tage);
    }

    #[test]
    fn all_configs_validate() {
        for cfg in UarchConfig::table_iv() {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
        assert_eq!(UarchConfig::modified_configs().len(), 4);
    }

    #[test]
    fn validated_accepts_sound_and_rejects_zero_geometry() {
        assert!(UarchConfig::baseline().validated().is_ok());
        for field in ["rob_size", "rs_size", "sb_size", "dispatch_width"] {
            let mut cfg = UarchConfig::baseline();
            match field {
                "rob_size" => cfg.rob_size = 0,
                "rs_size" => cfg.rs_size = 0,
                "sb_size" => cfg.sb_size = 0,
                _ => cfg.dispatch_width = 0,
            }
            assert_eq!(
                cfg.validated(),
                Err(ConfigError::Zero { what: field }),
                "{field}"
            );
        }
    }

    #[test]
    fn freq_matches_paper_platform() {
        assert!((UarchConfig::baseline().freq_ghz - 3.5).abs() < 1e-12);
    }
}
