//! The affine loop-nest IR and its legality-checked transformations.
//!
//! A [`LoopNest`] is a perfect nest of counted loops (outermost first) whose
//! body performs affine memory accesses `addr = base + sum(stride_i * iv_i)`.
//! Data dependences are summarized as constant *distance vectors* in
//! iteration space, the classical representation loop transformations are
//! verified against: a transformation is legal iff every transformed
//! distance vector remains lexicographically non-negative.

use std::error::Error;
use std::fmt;

/// An affine memory access within a loop-nest body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Access {
    /// Base byte address.
    pub(crate) base: u64,
    /// Per-dimension byte strides (same length as the nest's dims).
    pub(crate) strides: Vec<i64>,
    /// Whether the access writes.
    pub(crate) is_store: bool,
}

/// A data dependence summarized as a constant distance vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dependence {
    /// Per-dimension iteration distance (outermost first).
    pub(crate) distance: Vec<i64>,
}

impl Dependence {
    /// Whether the distance vector is lexicographically non-negative (the
    /// dependence is preserved by the current loop order).
    fn is_legal(&self) -> bool {
        for &d in &self.distance {
            if d > 0 {
                return true;
            }
            if d < 0 {
                return false;
            }
        }
        true // all-zero: loop-independent
    }
}

/// Why a transformation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TransformError {
    /// A dependence distance vector would become lexicographically negative.
    IllegalDependence {
        /// The violated (transformed) distance vector.
        distance: Vec<i64>,
    },
    /// A dimension index was out of range.
    BadDimension {
        /// Requested dimension.
        dim: usize,
        /// Number of dimensions in the nest.
        ndims: usize,
    },
    /// Fusion requires identical iteration spaces.
    ShapeMismatch,
    /// A tile size of zero was requested.
    ZeroTile,
    /// The tile size does not divide the loop extent (this rectangular IR
    /// has no remainder loops).
    NonDivisibleTile {
        /// Loop extent.
        extent: i64,
        /// Requested tile size.
        tile: i64,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::IllegalDependence { distance } => {
                write!(f, "dependence {distance:?} would be violated")
            }
            TransformError::BadDimension { dim, ndims } => {
                write!(f, "dimension {dim} out of range for {ndims}-deep nest")
            }
            TransformError::ShapeMismatch => write!(f, "iteration spaces differ"),
            TransformError::ZeroTile => write!(f, "tile size must be nonzero"),
            TransformError::NonDivisibleTile { extent, tile } => {
                write!(f, "tile {tile} does not divide extent {extent}")
            }
        }
    }
}

impl Error for TransformError {}

/// A perfect affine loop nest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoopNest {
    /// Human-readable name (for reports).
    pub(crate) name: String,
    /// Loop extents, outermost first.
    pub(crate) extents: Vec<i64>,
    /// Body accesses.
    pub(crate) accesses: Vec<Access>,
    /// Dependence distance vectors.
    pub(crate) deps: Vec<Dependence>,
}

impl LoopNest {
    /// Creates a nest, checking that access stride vectors and dependence
    /// distances match the dimensionality.
    ///
    /// # Panics
    ///
    /// Panics on dimensionality mismatches — these are programming errors in
    /// the nest description, not runtime conditions.
    pub(crate) fn new(
        name: impl Into<String>,
        extents: Vec<i64>,
        accesses: Vec<Access>,
        deps: Vec<Dependence>,
    ) -> Self {
        let n = extents.len();
        assert!(extents.iter().all(|&e| e > 0), "extents must be positive");
        for a in &accesses {
            assert_eq!(a.strides.len(), n, "access stride arity");
        }
        for d in &deps {
            assert_eq!(d.distance.len(), n, "dependence arity");
        }
        LoopNest {
            name: name.into(),
            extents,
            accesses,
            deps,
        }
    }

    /// Number of loop dimensions.
    fn ndims(&self) -> usize {
        self.extents.len()
    }

    /// Total iterations.
    pub(crate) fn iterations(&self) -> u64 {
        self.extents.iter().product::<i64>() as u64
    }

    /// Strip-mines dimension `dim` by `tile` and moves the tile loop
    /// outermost (classic tiling step for one dimension).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::ZeroTile`] / [`TransformError::BadDimension`]
    /// / [`TransformError::NonDivisibleTile`] for bad arguments, and
    /// [`TransformError::IllegalDependence`] if a dependence crosses tiles
    /// backward (distance in `dim` negative — conservatively rejected).
    pub(crate) fn tile(&self, dim: usize, tile: i64) -> Result<LoopNest, TransformError> {
        if tile <= 0 {
            return Err(TransformError::ZeroTile);
        }
        let n = self.ndims();
        if dim >= n {
            return Err(TransformError::BadDimension { dim, ndims: n });
        }
        if self.extents[dim] % tile != 0 {
            return Err(TransformError::NonDivisibleTile {
                extent: self.extents[dim],
                tile,
            });
        }
        // Conservative legality: all dependences must have non-negative
        // distance along the tiled dimension.
        for dep in &self.deps {
            if dep.distance[dim] < 0 {
                return Err(TransformError::IllegalDependence {
                    distance: dep.distance.clone(),
                });
            }
        }
        let extent = self.extents[dim];
        let tiles = extent / tile;
        let inner = tile;

        let mut extents = Vec::with_capacity(n + 1);
        extents.push(tiles);
        extents.extend_from_slice(&self.extents);
        let mut out_extents = extents;
        out_extents[dim + 1] = inner;

        let accesses = self
            .accesses
            .iter()
            .map(|a| {
                let mut strides = Vec::with_capacity(n + 1);
                // The tile loop advances by tile * original stride.
                strides.push(a.strides[dim] * tile);
                strides.extend_from_slice(&a.strides);
                Access {
                    base: a.base,
                    strides,
                    is_store: a.is_store,
                }
            })
            .collect();
        let deps = self
            .deps
            .iter()
            .map(|d| {
                let mut distance = Vec::with_capacity(n + 1);
                distance.push(d.distance[dim] / tile.max(1));
                distance.extend_from_slice(&d.distance);
                Dependence { distance }
            })
            .collect();

        Ok(LoopNest {
            name: format!("{}_t{}x{}", self.name, dim, tile),
            extents: out_extents,
            accesses,
            deps,
        })
    }

    /// Fuses two nests with identical iteration spaces into one (the bodies
    /// concatenate).
    ///
    /// # Errors
    ///
    /// Returns [`TransformError::ShapeMismatch`] when extents differ, and
    /// [`TransformError::IllegalDependence`] if any `cross` dependence (from
    /// the first body to the second) has a lexicographically negative
    /// distance — fusing would then execute the consumer before its producer.
    pub(crate) fn fuse(
        a: &LoopNest,
        b: &LoopNest,
        cross: &[Dependence],
    ) -> Result<LoopNest, TransformError> {
        if a.extents != b.extents {
            return Err(TransformError::ShapeMismatch);
        }
        for dep in cross {
            if !dep.is_legal() {
                return Err(TransformError::IllegalDependence {
                    distance: dep.distance.clone(),
                });
            }
        }
        let mut accesses = a.accesses.clone();
        accesses.extend(b.accesses.iter().cloned());
        let mut deps = a.deps.clone();
        deps.extend(b.deps.iter().cloned());
        deps.extend(cross.iter().cloned());
        Ok(LoopNest {
            name: format!("{}+{}", a.name, b.name),
            extents: a.extents.clone(),
            accesses,
            deps,
        })
    }

    /// Generates the byte-address stream of one execution of the nest
    /// (row-major iteration order, body accesses in declaration order).
    ///
    /// Replayed by the plan's cost model; the stream length is
    /// `iterations() * accesses.len()`.
    pub(crate) fn address_stream(&self) -> AddressStream<'_> {
        AddressStream {
            nest: self,
            ivs: vec![0; self.ndims()],
            access_idx: 0,
            done: self.iterations() == 0 || self.accesses.is_empty(),
        }
    }
}

/// Iterator over a nest's (address, is_store) stream; see
/// [`LoopNest::address_stream`].
#[derive(Debug)]
pub(crate) struct AddressStream<'a> {
    nest: &'a LoopNest,
    ivs: Vec<i64>,
    access_idx: usize,
    done: bool,
}

impl Iterator for AddressStream<'_> {
    type Item = (u64, bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let acc = &self.nest.accesses[self.access_idx];
        let mut addr = acc.base as i64;
        for (iv, st) in self.ivs.iter().zip(acc.strides.iter()) {
            addr += iv * st;
        }
        let item = (addr.max(0) as u64, acc.is_store);

        // Advance: next access, then odometer over ivs.
        self.access_idx += 1;
        if self.access_idx == self.nest.accesses.len() {
            self.access_idx = 0;
            let mut d = self.nest.ndims();
            loop {
                if d == 0 {
                    self.done = true;
                    break;
                }
                d -= 1;
                self.ivs[d] += 1;
                if self.ivs[d] < self.nest.extents[d] {
                    break;
                }
                self.ivs[d] = 0;
            }
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_major_2d() -> LoopNest {
        // for i in 0..4 { for j in 0..8 { load A[i*64 + j*8] } }
        LoopNest::new(
            "a",
            vec![4, 8],
            vec![Access {
                base: 0,
                strides: vec![64, 8],
                is_store: false,
            }],
            vec![],
        )
    }

    #[test]
    fn stream_covers_iteration_space() {
        let n = row_major_2d();
        let stream: Vec<u64> = n.address_stream().map(|(a, _)| a).collect();
        assert_eq!(stream.len(), 32);
        assert_eq!(stream[0], 0);
        assert_eq!(stream[1], 8);
        assert_eq!(stream[8], 64);
        assert_eq!(*stream.last().unwrap(), 3 * 64 + 7 * 8);
    }

    #[test]
    fn tile_preserves_touched_addresses() {
        let n = row_major_2d();
        let tiled = n.tile(1, 4).unwrap();
        let mut a: Vec<u64> = n.address_stream().map(|(x, _)| x).collect();
        let mut b: Vec<u64> = tiled.address_stream().map(|(x, _)| x).collect();
        a.sort_unstable();
        a.dedup();
        b.sort_unstable();
        b.dedup();
        assert_eq!(a, b, "tiling must not change the touched address set");
    }

    #[test]
    fn tile_rejects_non_divisible() {
        let n = LoopNest::new("d", vec![16], vec![], vec![]);
        assert!(matches!(
            n.tile(0, 3),
            Err(TransformError::NonDivisibleTile {
                extent: 16,
                tile: 3
            })
        ));
        assert!(n.tile(0, 4).is_ok());
    }

    #[test]
    fn tile_rejects_negative_distance() {
        let n = LoopNest::new(
            "d",
            vec![8],
            vec![],
            vec![Dependence { distance: vec![-1] }],
        );
        assert!(n.tile(0, 4).is_err());
        assert_eq!(n.tile(0, 0).unwrap_err(), TransformError::ZeroTile);
    }

    #[test]
    fn fuse_checks_shape_and_cross_deps() {
        let a = row_major_2d();
        let mut b = row_major_2d();
        b.name = "b".into();
        let fused = LoopNest::fuse(&a, &b, &[]).unwrap();
        assert_eq!(fused.accesses.len(), 2);
        assert_eq!(fused.iterations(), 32);

        let bad_cross = [Dependence {
            distance: vec![0, -1],
        }];
        assert!(LoopNest::fuse(&a, &b, &bad_cross).is_err());
        let ok_cross = [Dependence {
            distance: vec![0, 1],
        }];
        assert!(LoopNest::fuse(&a, &b, &ok_cross).is_ok());

        let c = LoopNest::new("c", vec![2, 2], vec![], vec![]);
        assert_eq!(
            LoopNest::fuse(&a, &c, &[]).unwrap_err(),
            TransformError::ShapeMismatch
        );
    }

    #[test]
    fn dependence_legality() {
        assert!(Dependence {
            distance: vec![0, 0]
        }
        .is_legal());
        assert!(Dependence {
            distance: vec![1, -5]
        }
        .is_legal());
        assert!(!Dependence {
            distance: vec![0, -1]
        }
        .is_legal());
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use vtx_rng::Xoshiro256pp;

    fn sorted_addresses(nest: &LoopNest) -> Vec<u64> {
        let mut a: Vec<u64> = nest.address_stream().map(|(x, _)| x).collect();
        a.sort_unstable();
        a
    }

    fn one_dim(extent: i64, stride: i64) -> LoopNest {
        LoopNest::new(
            "p",
            vec![extent],
            vec![Access {
                base: 4096,
                strides: vec![stride],
                is_store: false,
            }],
            vec![],
        )
    }

    /// Tiling preserves the touched address set and the iteration count.
    #[test]
    fn tiling_preserves_address_set() {
        // The one case proptest ever recorded (extent 16, stride 1, tile 3):
        // the IR requires dividing tiles, so the property only draws those.
        assert_eq!(
            one_dim(16, 1).tile(0, 3),
            Err(TransformError::NonDivisibleTile {
                extent: 16,
                tile: 3
            })
        );
        let mut rng = Xoshiro256pp::new(0x711E);
        for _ in 0..256 {
            let tile = rng.next_i64_in(1, 8);
            let nest = one_dim(rng.next_i64_in(1, 8) * tile, rng.next_i64_in(1, 64));
            let tiled = nest.tile(0, tile).unwrap();
            assert_eq!(
                sorted_addresses(&nest),
                sorted_addresses(&tiled),
                "{nest:?} tile {tile}"
            );
        }
    }
}
