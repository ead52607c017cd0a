//! Seeded input generators. Every workload's input is a pure function of
//! its seed, so two runs with the same seed see the same points, the same
//! row order and the same planted outliers.

use std::io::{BufWriter, Write as _};
use std::path::Path;

/// SplitMix64: small, fast and good enough to draw benchmark inputs. The
/// benchmark keeps its own generator so a change to the program's RNG
/// cannot change the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Seed of the cluster layouts (centers, and drifts of the event stream),
/// which stay the same for every run seed: the run seed draws the points,
/// outliers and row order, so every seed's input has the same structure.
const LAYOUT_SEED: u64 = 0x4c4f_4620_6c61_796f;

/// Mixes a workload name into the run seed, so the four workloads of one
/// seed draw unrelated inputs.
pub fn workload_seed(seed: u64, workload: &str) -> u64 {
    let mut h = seed ^ 0x6c6f_665f_6265_6e63;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    Rng::new(h).next_u64()
}

/// A generated point set: row-major coordinates plus the ids of the
/// planted outliers.
pub struct Points {
    pub dims: usize,
    pub coords: Vec<f64>,
    pub planted: Vec<usize>,
}

impl Points {
    pub fn len(&self) -> usize {
        self.coords.len() / self.dims
    }

    /// Writes the points as a CSV with an `x0,x1,..` header. `{}` prints
    /// the shortest string that parses back to the same `f64`, so the
    /// program reads exactly the generated values.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let header: Vec<String> = (0..self.dims).map(|d| format!("x{d}")).collect();
        writeln!(out, "{}", header.join(","))?;
        for row in self.coords.chunks(self.dims) {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.write_all(b",")?;
                }
                write!(out, "{v}")?;
            }
            out.write_all(b"\n")?;
        }
        out.flush()
    }
}

/// `batch-range` / `ooc-spill` input: `n` 4-d points in 20 Gaussian
/// clusters (fixed centers in [0, 100)^4, spreads 0.5, 0.6, .., 2.4), rows
/// interleaved across clusters (row `i` belongs to cluster `i % 20`, so
/// consecutive ids are far apart in space), with one uniform outlier in
/// every 200 rows (0.5%).
pub fn clustered(seed: u64, n: usize) -> Points {
    const DIMS: usize = 4;
    const CLUSTERS: usize = 20;
    const OUTLIER_EVERY: usize = 200;
    let mut layout = Rng::new(LAYOUT_SEED);
    let centers: Vec<[f64; DIMS]> =
        (0..CLUSTERS).map(|_| std::array::from_fn(|_| layout.range(0.0, 100.0))).collect();
    let mut rng = Rng::new(seed);
    let spreads: Vec<f64> = (0..CLUSTERS).map(|c| 0.5 + 0.1 * c as f64).collect();
    let outlier_slot = rng.below(OUTLIER_EVERY);
    let mut coords = Vec::with_capacity(n * DIMS);
    let mut planted = Vec::new();
    for i in 0..n {
        if i % OUTLIER_EVERY == outlier_slot {
            planted.push(i);
            coords.extend((0..DIMS).map(|_| rng.range(-30.0, 130.0)));
        } else {
            let c = i % CLUSTERS;
            coords.extend((0..DIMS).map(|d| centers[c][d] + spreads[c] * rng.gauss()));
        }
    }
    Points { dims: DIMS, coords, planted }
}

/// `topn-lattice` input: `n` 4-d points, all but 200 of them on 64
/// unit-spacing integer lattices (each a filled hypercube around a fixed
/// integer center, centers at least one lattice width apart), plus 200
/// uniform outliers in [0, 1000)^4 drawn from the seed. Rows are shuffled
/// by the seed. Integer lattice coordinates make lattice distances exact,
/// so ties are real ties for the program and for the reference alike.
pub fn lattice(seed: u64, n: usize) -> Points {
    const DIMS: usize = 4;
    const CLUSTERS: usize = 64;
    const OUTLIERS: usize = 200;
    let mut layout = Rng::new(LAYOUT_SEED);
    let mut rng = Rng::new(seed);
    let body = n - OUTLIERS;
    let per = body.div_ceil(CLUSTERS);
    let side = (per as f64).powf(1.0 / DIMS as f64).ceil() as usize;
    let mut centers: Vec<[f64; DIMS]> = Vec::with_capacity(CLUSTERS);
    while centers.len() < CLUSTERS {
        let c: [f64; DIMS] = std::array::from_fn(|_| layout.below(1000) as f64);
        let clear = centers
            .iter()
            .all(|o| o.iter().zip(&c).any(|(a, b)| (a - b).abs() > 2.0 * side as f64 + 4.0));
        if clear {
            centers.push(c);
        }
    }
    let mut rows: Vec<[f64; DIMS]> = Vec::with_capacity(n);
    for center in &centers {
        let share = per.min(body - rows.len());
        for i in 0..share {
            let mut rest = i;
            rows.push(std::array::from_fn(|d| {
                let off = (rest % side) as f64 - (side / 2) as f64;
                rest /= side;
                center[d] + off
            }));
        }
    }
    let first_outlier = rows.len();
    while rows.len() < n {
        rows.push(std::array::from_fn(|_| rng.range(0.0, 1000.0)));
    }
    // Fisher–Yates, tracking where the planted rows land.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut planted = Vec::with_capacity(OUTLIERS);
    let mut coords = Vec::with_capacity(n * DIMS);
    for (new_id, &old) in order.iter().enumerate() {
        if old >= first_outlier {
            planted.push(new_id);
        }
        coords.extend_from_slice(&rows[old]);
    }
    Points { dims: DIMS, coords, planted }
}

/// `serve-open` events for one tenant: 4-d points around three fixed
/// cluster centers that drift at fixed velocities as the stream advances,
/// with one uniform outlier in every 100 events.
pub struct EventStream {
    rng: Rng,
    centers: [[f64; 4]; 3],
    drift: [[f64; 4]; 3],
    seq: u64,
    outlier_slot: u64,
}

impl EventStream {
    pub fn new(seed: u64) -> Self {
        let mut layout = Rng::new(LAYOUT_SEED);
        let centers = std::array::from_fn(|_| std::array::from_fn(|_| layout.range(0.0, 50.0)));
        let drift = std::array::from_fn(|_| std::array::from_fn(|_| layout.range(-0.002, 0.002)));
        let mut rng = Rng::new(seed);
        let outlier_slot = rng.below(100) as u64;
        EventStream { rng, centers, drift, seq: 0, outlier_slot }
    }

    /// True when event `seq` of this stream is a planted outlier.
    pub fn is_planted(&self, seq: u64) -> bool {
        seq % 100 == self.outlier_slot
    }

    pub fn next_point(&mut self) -> [f64; 4] {
        let seq = self.seq;
        self.seq += 1;
        if self.is_planted(seq) {
            return std::array::from_fn(|_| self.rng.range(-40.0, 90.0));
        }
        let c = self.rng.below(3);
        let t = seq as f64;
        let (center, drift) = (self.centers[c], self.drift[c]);
        std::array::from_fn(|d| center[d] + drift[d] * t + self.rng.gauss())
    }
}

/// One event as a wire line (a bare CSV row, newline-terminated).
pub fn event_line(p: &[f64; 4]) -> String {
    format!("{},{},{},{}\n", p[0], p[1], p[2], p[3])
}
