//! An independent LOF, written from the paper's definitions and sharing no
//! code with the program: brute-force distances, tie-inclusive k-distance
//! neighborhoods (definitions 3–4), reachability distance (definition 5),
//! local reachability density (definition 6) and LOF (definition 7).
//! It only reads coordinates, so it checks whatever path produced a score:
//! the in-RAM sweep, the spilled table, the top-n engine or a streaming
//! window.

use std::collections::{BinaryHeap, HashMap};

/// Squared Euclidean distance, summed in dimension order.
fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

/// One scanned object: its id, its full neighborhood list (levels 0–1)
/// or its k-distances (level 2).
type Scanned = (usize, Vec<(f64, usize)>, Vec<f64>);

/// Brute-force LOF over a row-major point set, for `MinPts` up to `max_k`.
pub struct Reference<'a> {
    coords: &'a [f64],
    dims: usize,
    max_k: usize,
    /// Per object: its `max_k` smallest distances to other objects,
    /// ascending, a tie counted once per object (entry `k - 1` is the
    /// k-distance).
    k_dists: HashMap<usize, Vec<f64>>,
    /// Per object: every other object within its `max_k`-distance, sorted
    /// by (distance, id). Prefixes of it are the smaller neighborhoods.
    lists: HashMap<usize, Vec<(f64, usize)>>,
}

impl<'a> Reference<'a> {
    pub fn new(coords: &'a [f64], dims: usize, max_k: usize) -> Self {
        assert!(coords.len() / dims > max_k, "need more objects than MinPts");
        Reference { coords, dims, max_k, k_dists: HashMap::new(), lists: HashMap::new() }
    }

    fn point(&self, id: usize) -> &[f64] {
        &self.coords[id * self.dims..(id + 1) * self.dims]
    }

    fn others(&self, p: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let q = self.point(p);
        self.coords
            .chunks_exact(self.dims)
            .enumerate()
            .filter(move |&(o, _)| o != p)
            .map(move |(o, x)| (o, dist_sq(q, x)))
    }

    /// The `max_k` smallest distances from `p`, by a full scan. Squared
    /// distances are never negative, so their bit patterns order like the
    /// values and a max-heap of bits keeps the smallest.
    fn scan_k_dists(&self, p: usize) -> Vec<f64> {
        let mut heap = BinaryHeap::with_capacity(self.max_k + 1);
        for (_, d2) in self.others(p) {
            let bits = d2.to_bits();
            if heap.len() < self.max_k {
                heap.push(bits);
            } else if bits < *heap.peek().expect("heap is full") {
                heap.pop();
                heap.push(bits);
            }
        }
        heap.into_sorted_vec().into_iter().map(|b| f64::from_bits(b).sqrt()).collect()
    }

    /// The tie-inclusive `max_k`-neighborhood of `p`, by two full scans.
    fn scan_list(&self, p: usize) -> Vec<(f64, usize)> {
        let k_dist = self.scan_k_dists(p)[self.max_k - 1];
        let mut list: Vec<(f64, usize)> =
            self.others(p).map(|(o, d2)| (d2.sqrt(), o)).filter(|&(d, _)| d <= k_dist).collect();
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        list
    }

    /// Scans every object `ids` needs: the neighborhoods of the objects
    /// and of their neighbors, and the k-distances of their neighbors'
    /// neighbors (which enter reach-dist). The scans of one level run on
    /// `threads` threads.
    pub fn prepare(&mut self, ids: &[usize], threads: usize) {
        let mut level: Vec<usize> = ids.to_vec();
        for depth in 0..3 {
            level.sort_unstable();
            level.dedup();
            let full = depth < 2;
            level.retain(|id| {
                !self.lists.contains_key(id) && (full || !self.k_dists.contains_key(id))
            });
            let this = &*self;
            let chunk = level.len().div_ceil(threads.max(1)).max(1);
            let scanned: Vec<Scanned> = std::thread::scope(|s| {
                let handles: Vec<_> = level
                    .chunks(chunk)
                    .map(|part| {
                        s.spawn(move || {
                            part.iter()
                                .map(|&p| {
                                    if full {
                                        (p, this.scan_list(p), Vec::new())
                                    } else {
                                        (p, Vec::new(), this.scan_k_dists(p))
                                    }
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("reference scan thread panicked"))
                    .collect()
            });
            level = scanned.iter().flat_map(|(_, list, _)| list.iter().map(|e| e.1)).collect();
            for (p, list, k_dists) in scanned {
                if full {
                    self.lists.insert(p, list);
                } else {
                    self.k_dists.insert(p, k_dists);
                }
            }
        }
    }

    fn list(&mut self, p: usize) -> &[(f64, usize)] {
        if !self.lists.contains_key(&p) {
            let list = self.scan_list(p);
            self.lists.insert(p, list);
        }
        &self.lists[&p]
    }

    /// Definition 3: the distance to the k-th nearest other object.
    pub fn k_distance(&mut self, p: usize, k: usize) -> f64 {
        if let Some(list) = self.lists.get(&p) {
            return list[k - 1].0;
        }
        if !self.k_dists.contains_key(&p) {
            let k_dists = self.scan_k_dists(p);
            self.k_dists.insert(p, k_dists);
        }
        self.k_dists[&p][k - 1]
    }

    /// Definition 4: every object within the k-distance, ties included.
    pub fn neighborhood(&mut self, p: usize, k: usize) -> Vec<(f64, usize)> {
        let k_dist = self.list(p)[k - 1].0;
        self.list(p).iter().take_while(|e| e.0 <= k_dist).copied().collect()
    }

    /// Definition 6, with definition 5's reach-dist inlined.
    pub fn lrd(&mut self, p: usize, k: usize) -> f64 {
        let nbrs = self.neighborhood(p, k);
        let reach_sum: f64 = nbrs.iter().map(|&(d, o)| self.k_distance(o, k).max(d)).sum();
        nbrs.len() as f64 / reach_sum
    }

    /// Definition 7.
    pub fn lof(&mut self, p: usize, k: usize) -> f64 {
        let lrd_p = self.lrd(p, k);
        let nbrs = self.neighborhood(p, k);
        let ratio_sum: f64 = nbrs.iter().map(|&(_, o)| self.lrd(o, k) / lrd_p).sum();
        ratio_sum / nbrs.len() as f64
    }

    /// The maximum LOF over `MinPts` in `lb..=ub` (the paper's §6.2
    /// ranking heuristic).
    pub fn lof_max(&mut self, p: usize, lb: usize, ub: usize) -> f64 {
        assert!(ub <= self.max_k);
        (lb..=ub).map(|k| self.lof(p, k)).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// True when `got` agrees with `want` within relative tolerance `rel`
/// (infinities must match exactly).
pub fn close(got: f64, want: f64, rel: f64) -> bool {
    if want.is_infinite() || got.is_infinite() {
        return got == want;
    }
    (got - want).abs() <= rel * want.abs().max(1e-300)
}

/// Checks the reference on inputs small enough to work out by hand.
/// Returns the first disagreement.
pub fn self_test() -> Result<(), String> {
    let expect = |what: &str, got: f64, want: f64| {
        if close(got, want, 1e-12) {
            Ok(())
        } else {
            Err(format!("reference self-test: {what} = {got}, expected {want}"))
        }
    };

    // Points 0, 1 and 3 on a line, MinPts 1. k-distances are 1, 1, 2;
    // reach-dist(3, 1) = max(1, 2) = 2, so lrd = 1, 1, 1/2 and
    // LOF = 1, 1, 2.
    let line = [0.0, 1.0, 3.0];
    let mut r = Reference::new(&line, 1, 2);
    expect("k-distance(3)", r.k_distance(2, 1), 2.0)?;
    expect("lrd(3)", r.lrd(2, 1), 0.5)?;
    expect("LOF(0)", r.lof(0, 1), 1.0)?;
    expect("LOF(1)", r.lof(1, 1), 1.0)?;
    expect("LOF(3)", r.lof(2, 1), 2.0)?;

    // Ties are included: from 0 the points -1 and 1 are both at the
    // 1-distance, so the 1-neighborhood holds two objects.
    let tie = [0.0, 1.0, -1.0, 5.0];
    let mut r = Reference::new(&tie, 1, 2);
    let n = r.neighborhood(0, 1).len();
    if n != 2 {
        return Err(format!("reference self-test: |N_1(0)| = {n}, expected 2"));
    }

    // A 9x9 unit lattice, MinPts 4. Every point at least one step from
    // the border has its four nearest at distance 1, so its k-distance is
    // 1. A point three steps in has only such points as neighbors and
    // neighbors' neighbors, so every reach-dist it and its neighbors see
    // is 1, every lrd is 1 and its LOF is exactly 1.
    let grid: Vec<f64> = (0..81).flat_map(|i| [f64::from(i % 9), f64::from(i / 9)]).collect();
    let mut r = Reference::new(&grid, 2, 4);
    for y in 3..=5 {
        for x in 3..=5 {
            let id = y * 9 + x;
            if r.neighborhood(id, 4).len() != 4 {
                return Err(format!("reference self-test: lattice point {id} has a wrong 4-NN"));
            }
            let lof = r.lof(id, 4);
            if lof != 1.0 {
                return Err(format!("reference self-test: lattice LOF({id}) = {lof}, expected 1"));
            }
        }
    }
    // A corner's 4-neighborhood reaches out to distance 2 (neighbors at
    // 1, 1, √2 and a tie of two at 2), sparser than its neighbors' own,
    // so it scores above 1.
    if r.lof(0, 4) <= 1.0 {
        return Err("reference self-test: lattice corner should score above 1".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_checked_cases_pass() {
        self_test().unwrap();
    }

    #[test]
    fn prepare_matches_lazy_scans() {
        let pts: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 101) * 0.5).collect();
        let mut lazy = Reference::new(&pts, 2, 6);
        let mut eager = Reference::new(&pts, 2, 6);
        eager.prepare(&[3, 17, 42], 2);
        for p in [3, 17, 42] {
            assert_eq!(lazy.lof_max(p, 2, 6).to_bits(), eager.lof_max(p, 2, 6).to_bits());
        }
    }
}
