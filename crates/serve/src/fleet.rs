//! Heterogeneous worker fleets built from the Table IV configurations.

use vtx_sched::affinity::CONFIG_NAMES;
use vtx_uarch::config::UarchConfig;

use crate::error::ServeError;

/// One server: a microarchitecture plus a relative speed grade (cloud
/// fleets mix CPU generations; 1.0 = the paper's reference part).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Display name (unique within a fleet).
    pub(crate) name: String,
    /// Microarchitecture configuration (Table IV column).
    pub(crate) uarch: UarchConfig,
    /// Relative speed multiplier (>1 = faster part).
    pub(crate) speed: f64,
}

impl ServerSpec {
    /// Index of this server's uarch in [`CONFIG_NAMES`] order, `None` for
    /// the baseline (which attacks no Top-down category).
    pub(crate) fn config_index(&self) -> Option<usize> {
        CONFIG_NAMES.iter().position(|&n| n == self.uarch.name)
    }
}

/// A validated, nonempty set of servers.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    servers: Vec<ServerSpec>,
}

impl Fleet {
    /// Builds a fully validated fleet, mirroring the vtx-sched `try_`
    /// pattern: every constructor precondition becomes an error, and the
    /// panicking wrapper ([`Fleet::validated`]) stays for callers whose
    /// input is static.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyFleet`] for an empty list,
    /// [`ServeError::DuplicateServer`] when two servers share a name, and
    /// [`ServeError::InvalidSpeed`] for a speed grade that is not finite
    /// and positive.
    #[cfg(test)]
    pub(crate) fn try_new(servers: Vec<ServerSpec>) -> Result<Self, ServeError> {
        if servers.is_empty() {
            return Err(ServeError::EmptyFleet);
        }
        for (i, s) in servers.iter().enumerate() {
            if !s.speed.is_finite() || s.speed <= 0.0 {
                return Err(ServeError::InvalidSpeed {
                    name: s.name.clone(),
                    speed: s.speed,
                });
            }
            if servers[..i].iter().any(|other| other.name == s.name) {
                return Err(ServeError::DuplicateServer {
                    name: s.name.clone(),
                });
            }
        }
        Ok(Fleet { servers })
    }

    /// The panicking wrapper around [`Fleet::try_new`], for static fleets
    /// (mirrors how vtx-sched pairs `try_*` with a panicking front door).
    ///
    /// # Panics
    ///
    /// Panics with the underlying [`ServeError`] message on invalid input.
    #[cfg(test)]
    fn validated(servers: Vec<ServerSpec>) -> Self {
        Fleet::try_new(servers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The bundled heterogeneous fleet: the baseline plus the four modified
    /// Table IV configurations, with mixed speed grades — slow front-end
    /// box, reference back-end boxes, one fast bad-speculation box — so
    /// placement quality actually matters.
    ///
    /// # Panics
    ///
    /// Never: the construction is static.
    pub fn table_iv() -> Self {
        let speeds = [0.9, 1.0, 1.05, 1.0, 1.15];
        let mut servers = vec![ServerSpec {
            name: "baseline-0".to_owned(),
            uarch: UarchConfig::baseline(),
            speed: speeds[0],
        }];
        for (i, cfg) in UarchConfig::modified_configs().into_iter().enumerate() {
            servers.push(ServerSpec {
                name: format!("{}-0", cfg.name),
                uarch: cfg,
                speed: speeds[i + 1],
            });
        }
        Fleet { servers }
    }

    /// A fleet of `n` replicas of every Table IV configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyFleet`] when `n` is 0.
    fn table_iv_replicated(n: usize) -> Result<Self, ServeError> {
        if n == 0 {
            return Err(ServeError::EmptyFleet);
        }
        let base = Fleet::table_iv();
        let mut servers = Vec::with_capacity(base.len() * n);
        for r in 0..n {
            // Base names are "{config}-0"; replica r is "{config}-{r}".
            let suffix = format!("-{r}");
            servers.extend(base.servers.iter().map(|s| ServerSpec {
                name: [s.uarch.name.as_str(), &suffix].concat(),
                uarch: s.uarch.clone(),
                speed: s.speed,
            }));
        }
        Ok(Fleet { servers })
    }

    /// A fleet of exactly `n` servers: the first `n` slots of enough
    /// Table IV replications. Used by the fault-tolerance study, whose
    /// canonical scenario runs 8 servers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyFleet`] when `n` is 0.
    pub fn sized(n: usize) -> Result<Self, ServeError> {
        if n == 0 {
            return Err(ServeError::EmptyFleet);
        }
        let per = CONFIG_NAMES.len() + 1; // the baseline plus the modified four
        let mut f = Fleet::table_iv_replicated(n.div_ceil(per))?;
        f.servers.truncate(n);
        Ok(f)
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The servers, index order.
    pub fn servers(&self) -> &[ServerSpec] {
        &self.servers
    }

    /// One server.
    pub(crate) fn server(&self, idx: usize) -> &ServerSpec {
        &self.servers[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_fleet_has_all_five_configs() {
        let f = Fleet::table_iv();
        assert_eq!(f.len(), 5);
        assert_eq!(f.server(0).uarch.name, "baseline");
        assert_eq!(f.server(0).config_index(), None);
        for (i, name) in CONFIG_NAMES.iter().enumerate() {
            let s = f.servers().iter().find(|s| s.uarch.name == *name).unwrap();
            assert_eq!(s.config_index(), Some(i));
        }
    }

    #[test]
    fn replication_renames_uniquely() {
        let f = Fleet::table_iv_replicated(2).unwrap();
        assert_eq!(f.len(), 10);
        let mut names: Vec<&str> = f.servers().iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "server names must be unique");
    }

    #[test]
    fn replica_names_equal_the_resuffixed_base_names() {
        // How names were built before they came straight from the config:
        // strip the base fleet's "-0", append the replica index.
        let base = Fleet::table_iv();
        let f = Fleet::table_iv_replicated(3).unwrap();
        assert_eq!(f.len(), 3 * base.len());
        for r in 0..3 {
            for (i, b) in base.servers().iter().enumerate() {
                let got = f.server(r * base.len() + i);
                let stem = b.name.trim_end_matches("-0");
                assert_eq!(got.name, format!("{stem}-{r}"));
                assert_eq!((&got.uarch, got.speed), (&b.uarch, b.speed));
            }
        }
        assert_eq!(f.servers()[..base.len()], *base.servers(), "replica 0");
        assert_eq!(Fleet::sized(base.len()).unwrap(), base);
    }

    #[test]
    fn try_new_validates_names_and_speeds() {
        let mut servers = Fleet::table_iv().servers().to_vec();
        assert!(Fleet::try_new(servers.clone()).is_ok());
        servers[1].speed = 0.0;
        assert!(matches!(
            Fleet::try_new(servers.clone()).unwrap_err(),
            ServeError::InvalidSpeed { speed, .. } if speed == 0.0
        ));
        servers[1].speed = f64::NAN;
        assert!(matches!(
            Fleet::try_new(servers.clone()).unwrap_err(),
            ServeError::InvalidSpeed { .. }
        ));
        servers[1].speed = 1.0;
        servers[1].name = servers[0].name.clone();
        assert_eq!(
            Fleet::try_new(servers).unwrap_err(),
            ServeError::DuplicateServer {
                name: "baseline-0".into()
            }
        );
        assert_eq!(Fleet::try_new(vec![]).unwrap_err(), ServeError::EmptyFleet);
    }

    #[test]
    fn validated_wrapper_accepts_good_fleets() {
        let f = Fleet::validated(Fleet::table_iv().servers().to_vec());
        assert_eq!(f.len(), 5);
    }

    #[test]
    #[should_panic(expected = "invalid speed")]
    fn validated_wrapper_panics_on_bad_input() {
        let mut servers = Fleet::table_iv().servers().to_vec();
        servers[0].speed = -1.0;
        let _ = Fleet::validated(servers);
    }

    #[test]
    fn sized_fleet_has_exactly_n_unique_servers() {
        let f = Fleet::sized(8).unwrap();
        assert_eq!(f.len(), 8);
        let mut names: Vec<&str> = f.servers().iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(Fleet::sized(3).unwrap().len(), 3);
        assert_eq!(Fleet::sized(0).unwrap_err(), ServeError::EmptyFleet);
        // Validation holds for the truncated construction too.
        assert!(Fleet::try_new(f.servers().to_vec()).is_ok());
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert_eq!(Fleet::try_new(vec![]).unwrap_err(), ServeError::EmptyFleet);
        assert_eq!(
            Fleet::table_iv_replicated(0).unwrap_err(),
            ServeError::EmptyFleet
        );
    }
}
