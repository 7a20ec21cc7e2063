//! Network geometry and the carrier-sensing relation.
//!
//! The paper models hidden terminals purely geometrically: a node can *decode*
//! transmissions from nodes within the transmission range and can *sense*
//! (defer to) transmissions from nodes within the sensing range. Two stations
//! whose distance exceeds the sensing range are *hidden* from each other — they
//! cannot detect each other's transmissions and therefore collide at the AP.
//!
//! The evaluation uses a transmission range of 16 m and a sensing range of 24 m
//! (from the ns-3 `-70 dBm` energy-detection configuration). Fully connected
//! networks place stations on a ring of radius 8 m around the AP; hidden-node
//! networks place them uniformly at random in a disc of radius 16 m or 20 m.
//!
//! [`Topology`] stores the sensing relation as one bit row per station,
//! `ceil(N / 64)` 64-bit words: 128 KB at N = 1000. The simulator adds a
//! transmitter's row to every station's busy count in one word-parallel
//! pass ([`Topology::sensing_row`]) and then visits only the stations whose
//! medium went from idle to busy or back.
//!
//! The rows are built a word at a time. [`Topology::fully_connected`] sets
//! every bit below N but the station's own. A geometric layout
//! ([`Topology::from_positions`]) evaluates `distance <= sensing_range`
//! once per pair `i < j`, without a branch, and packs 64 outcomes into a
//! word of row `i`; the lower triangle is then the upper one's mirror
//! image, filled by transposing 64 × 64 bit blocks.

use rand::Rng;

/// A point in the 2-D plane, in metres. The AP sits at the origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin (the AP's location).
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Construct a position.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Transpose a 64 × 64 bit matrix in place (bit `c` of `m[r]` is entry
/// `(r, c)`): swap the off-diagonal quadrants, then the quadrants of each
/// quadrant, down to single bits.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_ffff_ffffu64;
    while width != 0 {
        let mut r = 0;
        while r < 64 {
            let swap = ((m[r] >> width) ^ m[r + width]) & mask;
            m[r] ^= swap << width;
            m[r + width] ^= swap;
            r = (r + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// Identifier of a station. Stations are numbered `0..n`.
pub type NodeId = usize;

/// `n` points spaced evenly on a circle of `radius` around the origin.
fn ring_positions(n: usize, radius: f64) -> Vec<Position> {
    (0..n)
        .map(|i| {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
            Position::new(radius * theta.cos(), radius * theta.sin())
        })
        .collect()
}

/// Default transmission (decode) range in metres.
pub const DEFAULT_TX_RANGE: f64 = 16.0;
/// Default carrier-sensing range in metres.
pub const DEFAULT_SENSING_RANGE: f64 = 24.0;

/// The physical layout of the WLAN and the derived sensing relation.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    ap: Position,
    tx_range: f64,
    sensing_range: f64,
    /// 64-bit words per sensing row: `ceil(n / 64)`.
    words: usize,
    /// The sensing relation, one bit row per station: bit `j % 64` of word
    /// `rows[i * words + j / 64]` is set iff stations `i != j` sense each
    /// other. A station's own bit is clear (it never senses its own frame),
    /// and so are the padding bits past `n`.
    rows: Vec<u64>,
}

/// The ids of the set bits of a station bitset (station `i` is bit `i % 64`
/// of word `i / 64`), in ascending order.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = NodeId> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let node = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                node
            })
        })
    })
}

impl Topology {
    /// Build a topology from explicit station positions.
    ///
    /// The AP sits at `ap` (usually the origin). Sensing is symmetric and is derived
    /// from pairwise distance: `i` senses `j` iff `dist(i, j) <= sensing_range`.
    pub fn from_positions(
        positions: Vec<Position>,
        ap: Position,
        tx_range: f64,
        sensing_range: f64,
    ) -> Self {
        assert!(
            tx_range > 0.0 && sensing_range > 0.0,
            "ranges must be positive"
        );
        let n = positions.len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        // The upper triangle: bits j > i of row i, a word at a time.
        for (i, a) in positions.iter().enumerate() {
            for w in (i + 1) / 64..words {
                let (lo, hi) = ((64 * w).max(i + 1), (64 * w + 64).min(n));
                let mut word = 0;
                for (j, b) in (lo..hi).zip(&positions[lo..hi]) {
                    word |= u64::from(a.distance(b) <= sensing_range) << (j % 64);
                }
                rows[i * words + w] = word;
            }
        }
        // The lower triangle. Block (b, c), word c of rows 64b..64b + 63,
        // relates stations 64b..64b + 63 to stations 64c..64c + 63; for
        // c > b, block (c, b) is its transpose. A diagonal block holds only
        // its upper triangle so far, so it is OR-ed with its own transpose.
        let block_rows = |b: usize| 64 * b..(64 * b + 64).min(n);
        let mut block = [0u64; 64];
        for b in 0..words {
            for c in b..words {
                block.fill(0);
                for (k, i) in block_rows(b).enumerate() {
                    block[k] = rows[i * words + c];
                }
                transpose64(&mut block);
                for (k, i) in block_rows(c).enumerate() {
                    rows[i * words + b] |= block[k];
                }
            }
        }
        Topology {
            positions,
            ap,
            tx_range,
            sensing_range,
            words,
            rows,
        }
    }

    /// An idealised fully connected network of `n` stations: every station senses
    /// every other station regardless of geometry. Stations are placed on a ring
    /// of radius 8 m for reporting purposes.
    pub fn fully_connected(n: usize) -> Self {
        let words = n.div_ceil(64);
        let mut rows = vec![u64::MAX; n * words];
        for i in 0..n {
            let row = &mut rows[i * words..][..words];
            row[words - 1] = u64::MAX >> (64 * words - n);
            row[i / 64] &= !(1 << (i % 64));
        }
        Topology {
            positions: ring_positions(n, 8.0),
            ap: Position::ORIGIN,
            tx_range: DEFAULT_TX_RANGE,
            sensing_range: DEFAULT_SENSING_RANGE,
            words,
            rows,
        }
    }

    /// Stations placed uniformly on a ring of the given radius centred on the AP.
    ///
    /// With the default ranges and a radius of 8 m the maximum pairwise distance is
    /// 16 m < 24 m, so the network is fully connected (the paper's no-hidden-node
    /// configuration).
    pub fn ring(n: usize, radius: f64) -> Self {
        Self::from_positions(
            ring_positions(n, radius),
            Position::ORIGIN,
            DEFAULT_TX_RANGE,
            DEFAULT_SENSING_RANGE,
        )
    }

    /// Stations on a regular square lattice centred on the AP, row-major with
    /// the given spacing (metres) between adjacent stations.
    ///
    /// The lattice has `ceil(sqrt(n))` columns, so passing a spacing of
    /// `side / ceil(sqrt(n))` keeps the cell's physical extent fixed while
    /// `n` grows — the *densifying* regime of the large-N scaling campaign,
    /// where the hidden-pair fraction stays roughly constant instead of
    /// exploding with the area. A spacing of 0 degenerates to all stations at
    /// the AP (fully connected); large spacings produce mostly-hidden grids.
    ///
    /// The engine models every station as sensing the AP (ACKs freeze all
    /// active stations), so for a physically consistent layout keep the
    /// lattice half-diagonal — `side × √2 / 2` for a square side — within
    /// [`DEFAULT_SENSING_RANGE`]: a side of 32 m puts the corners ≈ 21.7 m
    /// from the AP at any density, a side of 36 m pushes them past 24 m
    /// for N ≳ 400.
    pub fn grid(n: usize, spacing: f64) -> Self {
        assert!(spacing >= 0.0, "spacing must be non-negative");
        let cols = (n as f64).sqrt().ceil() as usize;
        let cols = cols.max(1);
        let rows = n.div_ceil(cols);
        // Centre the lattice on the AP.
        let x0 = -(cols.saturating_sub(1) as f64) * spacing / 2.0;
        let y0 = -(rows.saturating_sub(1) as f64) * spacing / 2.0;
        let positions = (0..n)
            .map(|i| {
                let (row, col) = (i / cols, i % cols);
                Position::new(x0 + col as f64 * spacing, y0 + row as f64 * spacing)
            })
            .collect();
        Self::from_positions(
            positions,
            Position::ORIGIN,
            DEFAULT_TX_RANGE,
            DEFAULT_SENSING_RANGE,
        )
    }

    /// Stations grouped into hotspot clusters: `clusters` cluster centres are
    /// placed uniformly at random in a disc of radius `spread` around the AP,
    /// then each station is assigned round-robin to a cluster and placed
    /// uniformly in a disc of radius `cluster_radius` around its centre.
    ///
    /// This models the conference-room / lecture-hall regime the scaling
    /// campaign needs: dense local neighbourhoods (intra-cluster pairs always
    /// sense each other for `cluster_radius` well below the sensing range)
    /// with hidden pairs arising only *between* distant clusters. The RNG
    /// draw order is fixed (all centres first, then the stations in id
    /// order), so a given `(n, rng stream)` yields one deterministic layout.
    pub fn clustered<R: Rng + ?Sized>(
        n: usize,
        clusters: usize,
        spread: f64,
        cluster_radius: f64,
        rng: &mut R,
    ) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        assert!(spread >= 0.0 && cluster_radius >= 0.0);
        let disc_point = |rng: &mut R, centre: Position, radius: f64| {
            let r = radius * rng.gen::<f64>().sqrt();
            let theta = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
            Position::new(centre.x + r * theta.cos(), centre.y + r * theta.sin())
        };
        let centres: Vec<Position> = (0..clusters)
            .map(|_| disc_point(rng, Position::ORIGIN, spread))
            .collect();
        let positions = (0..n)
            .map(|i| disc_point(rng, centres[i % clusters], cluster_radius))
            .collect();
        Self::from_positions(
            positions,
            Position::ORIGIN,
            DEFAULT_TX_RANGE,
            DEFAULT_SENSING_RANGE,
        )
    }

    /// Stations placed uniformly at random in a disc of the given radius centred on
    /// the AP (the paper's hidden-node configuration: radius 16 m or 20 m).
    pub fn uniform_disc<R: Rng + ?Sized>(n: usize, radius: f64, rng: &mut R) -> Self {
        let positions = (0..n)
            .map(|_| {
                // Uniform over the disc: radius ∝ sqrt(U).
                let r = radius * rng.gen::<f64>().sqrt();
                let theta = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
                Position::new(r * theta.cos(), r * theta.sin())
            })
            .collect();
        Self::from_positions(
            positions,
            Position::ORIGIN,
            DEFAULT_TX_RANGE,
            DEFAULT_SENSING_RANGE,
        )
    }

    /// Number of stations.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Station positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// The configured transmission (decode) range in metres.
    pub fn tx_range(&self) -> f64 {
        self.tx_range
    }

    /// The configured carrier-sensing range in metres.
    pub fn sensing_range(&self) -> f64 {
        self.sensing_range
    }

    /// Whether station `i` can sense station `j`'s transmissions.
    pub fn senses(&self, i: NodeId, j: NodeId) -> bool {
        i == j || self.sensing_row(j)[i / 64] & (1 << (i % 64)) != 0
    }

    /// The stations that can sense station `src` (excluding `src` itself) as
    /// a bit row: station `i` is bit `i % 64` of word `i / 64`, and the
    /// padding bits past the last station are clear. The simulator adds and
    /// subtracts this row from the stations' busy counts on every
    /// transmission start and end.
    pub fn sensing_row(&self, src: NodeId) -> &[u64] {
        &self.rows[src * self.words..][..self.words]
    }

    /// The stations that can sense station `src` (excluding `src` itself), in
    /// ascending id order.
    pub fn neighbors(&self, src: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        ones(self.sensing_row(src))
    }

    /// The set of stations that can sense station `src` (excluding `src` itself).
    pub fn sensors_of(&self, src: NodeId) -> Vec<NodeId> {
        self.neighbors(src).collect()
    }

    /// Number of stations that can sense station `src` (excluding `src`).
    fn degree(&self, src: NodeId) -> usize {
        self.sensing_row(src)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// All unordered pairs of stations hidden from each other.
    pub fn hidden_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.num_nodes();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if !self.senses(i, j) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// Number of hidden pairs.
    pub fn num_hidden_pairs(&self) -> usize {
        let n = self.num_nodes();
        let sensing: usize = (0..n).map(|i| self.degree(i)).sum();
        (n * n.saturating_sub(1) - sensing) / 2
    }

    /// Whether every station senses every other station (O(N²/64), no pair
    /// walk).
    pub fn is_fully_connected(&self) -> bool {
        let n = self.num_nodes();
        (0..n).all(|i| self.degree(i) + 1 == n)
    }

    /// Distance of station `i` from the AP.
    pub fn distance_to_ap(&self, i: NodeId) -> f64 {
        self.positions[i].distance(&self.ap)
    }

    /// Fraction of station pairs that are hidden (0 for fully connected).
    pub fn hidden_pair_fraction(&self) -> f64 {
        let n = self.num_nodes();
        if n < 2 {
            return 0.0;
        }
        self.num_hidden_pairs() as f64 / (n * (n - 1) / 2) as f64
    }

    /// Override the sensing relation for a pair of stations (symmetric). Useful for
    /// constructing adversarial hidden-node configurations in tests, e.g. modelling
    /// shadowing by an obstacle between two otherwise-close stations.
    pub fn set_senses(&mut self, i: NodeId, j: NodeId, value: bool) {
        assert_ne!(i, j, "a station always senses itself");
        for (a, b) in [(i, j), (j, i)] {
            let word = &mut self.rows[a * self.words + b / 64];
            if value {
                *word |= 1 << (b % 64);
            } else {
                *word &= !(1 << (b % 64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ring_of_radius_8_is_fully_connected() {
        for n in [2, 5, 10, 40, 60] {
            let t = Topology::ring(n, 8.0);
            assert!(
                t.is_fully_connected(),
                "ring n={n} should have no hidden pairs"
            );
            assert_eq!(t.num_nodes(), n);
            for i in 0..n {
                assert!(t.distance_to_ap(i) <= 8.0 + 1e-9);
            }
        }
    }

    #[test]
    fn ring_of_large_radius_has_hidden_pairs() {
        // Diametrically opposite stations on a ring of radius 13 are 26 m apart > 24 m.
        let t = Topology::ring(10, 13.0);
        assert!(!t.is_fully_connected());
        assert!(t.num_hidden_pairs() > 0);
    }

    #[test]
    fn sensing_is_symmetric_and_reflexive() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = Topology::uniform_disc(25, 20.0, &mut rng);
        for i in 0..25 {
            assert!(t.senses(i, i));
            for j in 0..25 {
                assert_eq!(t.senses(i, j), t.senses(j, i));
            }
        }
    }

    #[test]
    fn uniform_disc_respects_radius() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = Topology::uniform_disc(200, 16.0, &mut rng);
        for i in 0..200 {
            assert!(t.distance_to_ap(i) <= 16.0 + 1e-9);
        }
    }

    #[test]
    fn wide_disc_usually_has_hidden_pairs() {
        let mut any_hidden = false;
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = Topology::uniform_disc(30, 20.0, &mut rng);
            if !t.is_fully_connected() {
                any_hidden = true;
            }
        }
        assert!(
            any_hidden,
            "a 20 m disc with 30 nodes should produce hidden pairs"
        );
    }

    #[test]
    fn fully_connected_override_ignores_geometry() {
        let t = Topology::fully_connected(50);
        assert!(t.is_fully_connected());
    }

    #[test]
    fn hidden_pairs_and_sensors_are_consistent() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let t = Topology::uniform_disc(20, 20.0, &mut rng);
        for (i, j) in t.hidden_pairs() {
            assert!(!t.senses(i, j));
            assert!(!t.sensors_of(j).contains(&i));
        }
        for seed in 0..20 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = Topology::uniform_disc(12, 14.0, &mut rng);
            assert_eq!(t.num_hidden_pairs(), t.hidden_pairs().len(), "seed {seed}");
            assert_eq!(
                t.is_fully_connected(),
                t.hidden_pairs().is_empty(),
                "seed {seed}"
            );
        }
    }

    /// Sizes around the word boundaries, and one at the benchmark's N.
    const SIZES: [usize; 10] = [0, 1, 2, 63, 64, 65, 127, 128, 129, 1000];

    /// The sensing rows by their definition, one pair at a time: the
    /// reference the word-parallel build must equal bit for bit, own bits
    /// and padding included.
    fn reference_rows(t: &Topology) -> Vec<u64> {
        let (pos, n) = (t.positions(), t.num_nodes());
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        for i in 0..n {
            for j in 0..n {
                if i != j && pos[i].distance(&pos[j]) <= t.sensing_range() {
                    rows[i * words + j / 64] |= 1 << (j % 64);
                }
            }
        }
        rows
    }

    #[test]
    fn neighbors_match_sense_matrix_in_ascending_order() {
        let layouts = |n: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
            let cols = (n as f64).sqrt().ceil().max(1.0);
            let ring8 = Topology::ring(n, 8.0);
            let disc20 = Topology::uniform_disc(n, 20.0, &mut rng);
            let custom = |t: &Topology, range: f64| {
                Topology::from_positions(t.positions().to_vec(), Position::ORIGIN, 16.0, range)
            };
            [
                ("disc 16 m", Topology::uniform_disc(n, 16.0, &mut rng)),
                // A 4 m grid puts pairs at exactly 24 m.
                ("grid 4 m", Topology::grid(n, 4.0)),
                ("grid 32 m side", Topology::grid(n, 32.0 / cols)),
                ("clustered", Topology::clustered(n, 4, 18.0, 3.0, &mut rng)),
                // The 12 m ring puts diametric pairs at 24 m.
                ("ring 12 m", Topology::ring(n, 12.0)),
                ("ring 8 m, range 16", custom(&ring8, 16.0)),
                ("disc 20 m, range 16", custom(&disc20, 16.0)),
                ("disc 20 m, range 1/3", custom(&disc20, 1.0 / 3.0)),
                ("ring 8 m", ring8),
                ("disc 20 m", disc20),
            ]
        };
        for n in SIZES {
            for (name, t) in layouts(n) {
                let words = n.div_ceil(64);
                let expected = reference_rows(&t);
                assert!(t.rows == expected, "{name}, n={n}: rows differ");
                for src in 0..n {
                    let row = &expected[src * words..][..words];
                    assert_eq!(t.sensors_of(src), ones(row).collect::<Vec<_>>());
                    // Ascending order is load-bearing for the determinism
                    // contract.
                    assert!(t
                        .neighbors(src)
                        .zip(t.neighbors(src).skip(1))
                        .all(|(a, b)| a < b));
                    for i in 0..n {
                        let bit = (row[i / 64] >> (i % 64)) & 1 == 1;
                        assert_eq!(t.senses(i, src), i == src || bit, "{name}, n={n}");
                    }
                }
                if name.starts_with("disc 20 m") && n >= 30 {
                    assert!(!t.is_fully_connected(), "{name}, n={n}");
                }
                assert_eq!(t.num_hidden_pairs(), t.hidden_pairs().len());
            }
        }
    }

    #[test]
    fn fully_connected_rows_cover_every_other_station() {
        for n in SIZES {
            let t = Topology::fully_connected(n);
            assert!(t.is_fully_connected(), "n={n}");
            assert_eq!(t.num_hidden_pairs(), 0, "n={n}");
            // The relation the 8 m ring's distances give (checked against
            // the definition above), own bits and padding clear.
            assert!(t.rows == Topology::ring(n, 8.0).rows, "n={n}");
        }
    }

    #[test]
    fn set_senses_rebuilds_adjacency() {
        let mut t = Topology::fully_connected(5);
        assert_eq!(t.sensors_of(2), [0, 1, 3, 4]);
        t.set_senses(2, 4, false);
        assert_eq!(t.sensors_of(2), [0, 1, 3]);
        assert_eq!(t.sensors_of(4), [0, 1, 3]);
        t.set_senses(2, 4, true);
        assert_eq!(t.sensors_of(2), [0, 1, 3, 4]);
    }

    #[test]
    fn manual_sensing_override() {
        let mut t = Topology::ring(4, 8.0);
        assert!(t.is_fully_connected());
        t.set_senses(0, 2, false);
        assert_eq!(t.num_hidden_pairs(), 1);
        assert_eq!(t.hidden_pairs(), vec![(0, 2)]);
        assert!((t.hidden_pair_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn grid_layout_is_centred_and_spaced() {
        let t = Topology::grid(9, 4.0);
        assert_eq!(t.num_nodes(), 9);
        // 3x3 lattice, 4 m spacing, centred: corners at (±4, ±4).
        assert_eq!(t.positions()[0], Position::new(-4.0, -4.0));
        assert_eq!(t.positions()[4], Position::new(0.0, 0.0));
        assert_eq!(t.positions()[8], Position::new(4.0, 4.0));
        // 8 m maximal extent (diagonal ~11.3 m) < 24 m sensing: fully connected.
        assert!(t.is_fully_connected());
    }

    #[test]
    fn grid_with_fixed_side_keeps_hidden_fraction_stable() {
        // Densifying regime: side ~32 m regardless of N (the scaling
        // campaign's setting). The hidden-pair fraction should stay in the
        // same ballpark as N quadruples, and every station must stay within
        // the AP's sensing range (the engine models all stations as sensing
        // the AP, so the corners may not exceed it).
        let side = 32.0;
        let grid = |n: usize| {
            let cols = (n as f64).sqrt().ceil();
            Topology::grid(n, side / cols)
        };
        let frac = |n: usize| grid(n).hidden_pair_fraction();
        let (f100, f400) = (frac(100), frac(400));
        assert!(f100 > 0.02, "32 m grid should have hidden pairs: {f100}");
        assert!(
            (f100 - f400).abs() < 0.15,
            "hidden fraction should be scale-stable: {f100} vs {f400}"
        );
        for n in [100, 500, 1000, 2000] {
            let t = grid(n);
            for i in 0..n {
                assert!(
                    t.distance_to_ap(i) <= DEFAULT_SENSING_RANGE,
                    "n={n}: station {i} at {:.2} m is outside the AP's sensing range",
                    t.distance_to_ap(i)
                );
            }
        }
    }

    #[test]
    fn grid_handles_degenerate_sizes() {
        assert_eq!(Topology::grid(1, 3.0).num_nodes(), 1);
        assert!(Topology::grid(1, 3.0).is_fully_connected());
        let t = Topology::grid(7, 2.0); // non-square count: 3 cols x 3 rows, last row short
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(Topology::grid(0, 2.0).num_nodes(), 0);
    }

    #[test]
    fn clustered_keeps_intra_cluster_pairs_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (n, clusters) = (40, 4);
        let t = Topology::clustered(n, clusters, 18.0, 3.0, &mut rng);
        assert_eq!(t.num_nodes(), n);
        // Stations i and i + clusters share a cluster; their distance is at
        // most the cluster diameter (6 m) < 24 m, so they always sense each
        // other.
        for i in 0..n - clusters {
            assert!(
                t.senses(i, i + clusters),
                "intra-cluster pair ({i}, {}) should sense each other",
                i + clusters
            );
        }
    }

    #[test]
    fn clustered_wide_spread_has_hidden_pairs_between_clusters() {
        let mut any_hidden = false;
        for seed in 0..10 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let t = Topology::clustered(30, 5, 20.0, 2.0, &mut rng);
            any_hidden |= !t.is_fully_connected();
        }
        assert!(
            any_hidden,
            "20 m spread hotspots should produce hidden pairs"
        );
    }

    #[test]
    fn positions_round_trip_through_from_positions() {
        let pos = vec![Position::new(1.0, 0.0), Position::new(0.0, 30.0)];
        let t = Topology::from_positions(pos.clone(), Position::ORIGIN, 16.0, 24.0);
        assert_eq!(t.positions(), &pos[..]);
        // 30 m apart > 24 m sensing range → hidden
        assert_eq!(t.num_hidden_pairs(), 1);
    }
}
