//! The ten x264 presets — Table II of the paper, reproduced option by option.

use crate::config::{EncoderConfig, PartitionSet};
use crate::types::MeMethod;

/// An x264 speed/quality preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Preset {
    /// Fastest, lowest quality/compression.
    Ultrafast,
    /// Very fast with minimal analysis.
    Superfast,
    /// Fast with hexagon search.
    Veryfast,
    /// Slightly more refs/subme.
    Faster,
    /// Balanced fast setting.
    Fast,
    /// The default.
    Medium,
    /// More refs, deeper analysis.
    Slow,
    /// UMH search, all partitions.
    Slower,
    /// Very deep analysis, 16 refs.
    Veryslow,
    /// Exhaustive search; impractical but maximal.
    Placebo,
}

impl Preset {
    /// All presets from fastest to slowest (the x-axis of Figure 6).
    pub const ALL: [Preset; 10] = [
        Preset::Ultrafast,
        Preset::Superfast,
        Preset::Veryfast,
        Preset::Faster,
        Preset::Fast,
        Preset::Medium,
        Preset::Slow,
        Preset::Slower,
        Preset::Veryslow,
        Preset::Placebo,
    ];

    /// The preset's x264 name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Ultrafast => "ultrafast",
            Preset::Superfast => "superfast",
            Preset::Veryfast => "veryfast",
            Preset::Faster => "faster",
            Preset::Fast => "fast",
            Preset::Medium => "medium",
            Preset::Slow => "slow",
            Preset::Slower => "slower",
            Preset::Veryslow => "veryslow",
            Preset::Placebo => "placebo",
        }
    }

    /// Parses an x264 preset name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == s)
    }

    /// The encoder configuration for this preset, per Table II.
    ///
    /// The paper's preset experiments fix `crf = 23` and `refs = 3` (those
    /// two are studied separately); this method returns the preset's *own*
    /// Table II refs value — override it for the Figure 6 experiment.
    pub fn config(self) -> EncoderConfig {
        let mut c = EncoderConfig::default();
        match self {
            Preset::Ultrafast => {
                c.aq_mode = 0;
                c.b_adapt = 0;
                c.bframes = 0;
                c.deblock = None;
                c.me = MeMethod::Dia;
                c.merange = 16;
                c.partitions = PartitionSet::none();
                c.refs = 1;
                c.scenecut = 0;
                c.subme = 0;
                c.trellis = 0;
                c.cabac = false;
            }
            Preset::Superfast => {
                c.me = MeMethod::Dia;
                c.partitions = PartitionSet::intra_only();
                c.refs = 1;
                c.subme = 1;
                c.trellis = 0;
            }
            Preset::Veryfast => {
                c.refs = 1;
                c.subme = 2;
                c.trellis = 0;
            }
            Preset::Faster => {
                c.refs = 2;
                c.subme = 4;
            }
            Preset::Fast => {
                c.refs = 2;
                c.subme = 6;
            }
            Preset::Medium => {}
            Preset::Slow => {
                c.refs = 5;
                c.subme = 8;
                c.trellis = 2;
            }
            Preset::Slower => {
                c.b_adapt = 2;
                c.me = MeMethod::Umh;
                c.partitions = PartitionSet::all();
                c.refs = 8;
                c.subme = 9;
                c.trellis = 2;
            }
            Preset::Veryslow => {
                c.b_adapt = 2;
                c.bframes = 8;
                c.me = MeMethod::Umh;
                c.merange = 24;
                c.partitions = PartitionSet::all();
                c.refs = 16;
                c.subme = 10;
                c.trellis = 2;
            }
            Preset::Placebo => {
                c.b_adapt = 2;
                c.bframes = 16;
                c.me = MeMethod::Tesa;
                c.merange = 24;
                c.partitions = PartitionSet::all();
                c.refs = 16;
                c.subme = 11;
                c.trellis = 2;
            }
        }
        c
    }

    /// Like [`Preset::config`], with wavefront worker threads on top
    /// (`0` = auto). Threading never changes the bitstream or profiler
    /// counts, so presets stay comparable at any thread count.
    pub fn config_threaded(self, threads: u32) -> EncoderConfig {
        self.config().with_threads(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_spot_checks() {
        let uf = Preset::Ultrafast.config();
        assert_eq!(uf.aq_mode, 0);
        assert_eq!(uf.bframes, 0);
        assert_eq!(uf.me, MeMethod::Dia);
        assert_eq!(uf.refs, 1);
        assert_eq!(uf.subme, 0);
        assert_eq!(uf.scenecut, 0);
        assert!(uf.deblock.is_none());
        assert!(!uf.cabac);

        let m = Preset::Medium.config();
        assert_eq!(m.refs, 3);
        assert_eq!(m.subme, 7);
        assert_eq!(m.trellis, 1);
        assert_eq!(m.me, MeMethod::Hex);
        assert_eq!(m.scenecut, 40);

        let vs = Preset::Veryslow.config();
        assert_eq!(vs.refs, 16);
        assert_eq!(vs.merange, 24);
        assert_eq!(vs.bframes, 8);
        assert_eq!(vs.me, MeMethod::Umh);

        let p = Preset::Placebo.config();
        assert_eq!(p.me, MeMethod::Tesa);
        assert_eq!(p.bframes, 16);
        assert_eq!(p.subme, 11);
    }

    #[test]
    fn all_presets_validate() {
        for p in Preset::ALL {
            p.config()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        }
    }

    #[test]
    fn effort_is_monotone_in_subme() {
        let submes: Vec<u8> = Preset::ALL.iter().map(|p| p.config().subme).collect();
        let mut sorted = submes.clone();
        sorted.sort_unstable();
        assert_eq!(submes, sorted);
    }

    #[test]
    fn threaded_config_only_changes_threads() {
        for p in Preset::ALL {
            let threaded = p.config_threaded(4);
            assert_eq!(threaded.threads, 4);
            let mut back = threaded.clone();
            back.threads = p.config().threads;
            assert_eq!(back, p.config(), "{}", p.name());
            threaded.validate().unwrap();
        }
    }

    #[test]
    fn names_roundtrip() {
        for p in Preset::ALL {
            assert_eq!(Preset::from_name(p.name()), Some(p));
        }
        assert_eq!(Preset::from_name("warp9"), None);
    }
}
