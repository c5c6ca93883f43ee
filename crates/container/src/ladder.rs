//! ABR ladder: the set of rungs each segment is transcoded to.
//!
//! A rung names one output rendition — a codec preset plus a CRF target.
//! The ladder expander in the serving layer fans every segment out across
//! all rungs, so a catalog job for an `R`-rung ladder over `S` segments
//! becomes `S × R` dispatch units. Ladders have a canonical text form
//! (`name=preset:crf,…`) used by the `serve_fleet --ladder` flag; parse
//! and render are exact inverses so ladder specs survive a config
//! round-trip byte-identically.

use crate::error::ContainerError;
use vtx_codec::Preset;

/// One rendition of the ABR ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rung {
    /// Rendition name, used in manifests and output paths.
    pub name: String,
    /// Encoder preset for this rung.
    pub preset: Preset,
    /// CRF quality target for this rung.
    pub crf: u8,
}

/// An ordered set of rungs (highest quality first, by convention).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ladder {
    /// The rungs, in manifest order.
    pub rungs: Vec<Rung>,
}

impl Ladder {
    /// The default three-rung ladder used by segmented serving.
    pub fn standard() -> Self {
        Ladder {
            rungs: vec![
                Rung {
                    name: "hi".to_string(),
                    preset: Preset::Medium,
                    crf: 20,
                },
                Rung {
                    name: "mid".to_string(),
                    preset: Preset::Veryfast,
                    crf: 26,
                },
                Rung {
                    name: "lo".to_string(),
                    preset: Preset::Ultrafast,
                    crf: 32,
                },
            ],
        }
    }

    /// Parses the canonical text form `name=preset:crf,name=preset:crf,…`.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerError::Manifest`] naming the 1-based rung index
    /// on any malformed entry, unknown preset, or duplicate rung name.
    pub fn parse(spec: &str) -> Result<Self, ContainerError> {
        let mut rungs = Vec::new();
        for (i, entry) in spec.split(',').enumerate() {
            let line = i + 1;
            let bad = |message: &str| ContainerError::Manifest {
                line,
                message: message.to_string(),
            };
            let (name, rest) = entry
                .split_once('=')
                .ok_or_else(|| bad("expected name=preset:crf"))?;
            let (preset, crf) = rest
                .split_once(':')
                .ok_or_else(|| bad("expected preset:crf"))?;
            if name.is_empty() {
                return Err(bad("empty rung name"));
            }
            if rungs.iter().any(|r: &Rung| r.name == name) {
                return Err(bad("duplicate rung name"));
            }
            let preset = Preset::from_name(preset).ok_or_else(|| bad("unknown preset"))?;
            let crf: u8 = crf.parse().map_err(|_| bad("bad crf"))?;
            rungs.push(Rung {
                name: name.to_string(),
                preset,
                crf,
            });
        }
        if rungs.is_empty() {
            return Err(ContainerError::Manifest {
                line: 1,
                message: "empty ladder".to_string(),
            });
        }
        Ok(Ladder { rungs })
    }

    /// Renders the canonical text form; exact inverse of [`Ladder::parse`].
    #[cfg(test)]
    fn render(&self) -> String {
        self.rungs
            .iter()
            .map(|r| format!("{}={}:{}", r.name, r.preset.name(), r.crf))
            .collect::<Vec<_>>()
            .join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_ladder_roundtrips() {
        let l = Ladder::standard();
        assert_eq!(l.render(), "hi=medium:20,mid=veryfast:26,lo=ultrafast:32");
        assert_eq!(Ladder::parse(&l.render()).unwrap(), l);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "hi",
            "hi=medium",
            "hi=warp9:20",
            "hi=medium:fast",
            "=medium:20",
            "hi=medium:20,hi=slow:18",
        ] {
            let err = Ladder::parse(bad).unwrap_err();
            assert!(matches!(err, ContainerError::Manifest { .. }), "{bad}");
        }
    }
}
