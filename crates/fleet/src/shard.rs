//! Shard-aware placement: which replica owns which slice of the embedding
//! key space.
//!
//! Queries hash to shards by id (`splitmix64(id) % shards`), and shards
//! map to replicas. Shard weights come from the cache planner's per-table
//! hot-row budgets ([`CacheModel`]): a shard standing for a hot table is
//! more expensive to move and more valuable to keep cache-resident, so
//! placement balances *weighted* load across replicas (deterministic LPT),
//! not raw shard counts.

use hercules_common::rng::splitmix64;
use hercules_hw::cost::CacheModel;
use hercules_workload::query::{Query, QueryId};

/// The router's id hash (splitmix64): uniform, cheap, and stable across
/// runs, so a query's shard is a pure function of its id.
pub fn shard_of(id: QueryId, shards: u32) -> u32 {
    let mut state = id.0;
    (splitmix64(&mut state) % shards as u64) as u32
}

/// Shard-to-replica ownership, with the original (home) placement kept so
/// the router can count re-routed traffic after failover moves.
#[derive(Debug, Clone)]
pub struct ShardMap {
    weights: Vec<f64>,
    owner: Vec<usize>,
    home: Vec<usize>,
}

impl ShardMap {
    /// Places `shards` shards across `replicas` replicas. Shard `s` is
    /// weighted by the cache plan's hot-row budget of table `s % n_tables`
    /// (uniform when no cache plan applies): deterministic
    /// longest-processing-time assignment onto the least-loaded replica,
    /// ties to the lowest replica index.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `replicas` is zero.
    pub fn place(cache: Option<&CacheModel>, shards: u32, replicas: usize) -> ShardMap {
        assert!(shards > 0, "need at least one shard");
        assert!(replicas > 0, "need at least one replica");
        let weights: Vec<f64> = (0..shards)
            .map(|s| match cache {
                Some(m) if !m.tables().is_empty() => {
                    let t = s as usize % m.tables().len();
                    // +1 keeps zero-budget tables routable.
                    (m.hot_rows(t) + 1) as f64
                }
                _ => 1.0,
            })
            .collect();
        let mut order: Vec<u32> = (0..shards).collect();
        order.sort_by(|a, b| {
            weights[*b as usize]
                .total_cmp(&weights[*a as usize])
                .then(a.cmp(b))
        });
        let mut owner = vec![0usize; shards as usize];
        let mut load = vec![0.0f64; replicas];
        for s in order {
            let r = least_loaded(&load, (0..replicas).collect::<Vec<_>>().as_slice());
            owner[s as usize] = r;
            load[r] += weights[s as usize];
        }
        let home = owner.clone();
        ShardMap {
            weights,
            owner,
            home,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.owner.len() as u32
    }

    /// The replica currently owning `shard`.
    pub fn owner(&self, shard: u32) -> usize {
        self.owner[shard as usize]
    }

    /// Whether `shard` has moved off its original placement.
    pub fn moved(&self, shard: u32) -> bool {
        self.owner[shard as usize] != self.home[shard as usize]
    }

    /// Routes a query to its shard's current owner.
    pub fn route(&self, q: &Query) -> usize {
        self.owner(shard_of(q.id, self.shards()))
    }

    /// Current weighted load per replica (indexable by any replica id seen
    /// in the owner table plus `n`).
    pub fn loads(&self, n: usize) -> Vec<f64> {
        let mut load = vec![0.0f64; n];
        for (s, &r) in self.owner.iter().enumerate() {
            if r < n {
                load[r] += self.weights[s];
            }
        }
        load
    }

    /// Moves every shard owned by `from` onto the least-loaded of
    /// `active` (weight-greedy, deterministic). Returns the number of
    /// shards moved. Used when a replica drains: its traffic must land on
    /// healthy replicas within the epoch.
    pub fn reassign(&mut self, from: usize, active: &[usize]) -> usize {
        assert!(
            !active.is_empty(),
            "cannot reassign with no active replicas"
        );
        assert!(
            !active.contains(&from),
            "draining replica cannot stay active"
        );
        let n = active.iter().copied().max().unwrap_or(0).max(from) + 1;
        let mut load = self.loads(n);
        // Heaviest shards first, so the greedy target choice stays balanced.
        let mut moving: Vec<u32> = (0..self.shards())
            .filter(|&s| self.owner[s as usize] == from)
            .collect();
        moving.sort_by(|a, b| {
            self.weights[*b as usize]
                .total_cmp(&self.weights[*a as usize])
                .then(a.cmp(b))
        });
        let moved = moving.len();
        for s in moving {
            let r = least_loaded(&load, active);
            self.owner[s as usize] = r;
            load[from] -= self.weights[s as usize];
            load[r] += self.weights[s as usize];
        }
        moved
    }

    /// Rebalances toward a newly activated replica: moves shards from the
    /// most-loaded active replicas onto `to` until `to` reaches the fair
    /// share (total weight over active count). Returns shards moved — the
    /// caller charges this as migration cost.
    pub fn rebalance_into(&mut self, to: usize, active: &[usize]) -> usize {
        assert!(active.contains(&to), "target must be active");
        let n = active.iter().copied().max().unwrap_or(0) + 1;
        let mut load = self.loads(n);
        let total: f64 = active.iter().map(|&r| load[r]).sum();
        let fair = total / active.len() as f64;
        let mut moved = 0usize;
        loop {
            if load[to] >= fair {
                break;
            }
            // Most-loaded donor, ties to lowest index.
            let Some(&donor) = active
                .iter()
                .filter(|&&r| r != to)
                .max_by(|&&a, &&b| load[a].total_cmp(&load[b]).then(b.cmp(&a)))
            else {
                break;
            };
            // The donor's lightest shard that still helps: moving it must
            // not push `to` past the donor (which would just oscillate).
            let Some(s) = (0..self.shards())
                .filter(|&s| self.owner[s as usize] == donor)
                .min_by(|&a, &b| {
                    self.weights[a as usize]
                        .total_cmp(&self.weights[b as usize])
                        .then(a.cmp(&b))
                })
            else {
                break;
            };
            let w = self.weights[s as usize];
            if load[to] + w > load[donor] {
                break;
            }
            self.owner[s as usize] = to;
            load[donor] -= w;
            load[to] += w;
            moved += 1;
        }
        moved
    }
}

/// Lowest-loaded candidate, ties to the lowest index.
fn least_loaded(load: &[f64], candidates: &[usize]) -> usize {
    *candidates
        .iter()
        .min_by(|&&a, &&b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
        .expect("non-empty candidate set")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = ShardMap::place(None, 16, 3);
        let b = ShardMap::place(None, 16, 3);
        for s in 0..16 {
            assert_eq!(a.owner(s), b.owner(s));
            assert!(a.owner(s) < 3);
        }
    }

    #[test]
    fn uniform_weights_balance() {
        let m = ShardMap::place(None, 12, 3);
        let loads = m.loads(3);
        assert!(loads.iter().all(|&l| (l - 4.0).abs() < 1e-9), "{loads:?}");
    }

    #[test]
    fn reassign_empties_the_drained_replica() {
        let mut m = ShardMap::place(None, 16, 4);
        let moved = m.reassign(1, &[0, 2, 3]);
        assert!(moved > 0);
        for s in 0..16 {
            assert_ne!(m.owner(s), 1);
        }
        assert!((0..16).any(|s| m.moved(s)));
    }

    #[test]
    fn rebalance_gives_new_replica_work() {
        let mut m = ShardMap::place(None, 16, 2);
        let moved = m.rebalance_into(2, &[0, 1, 2]);
        assert!(moved > 0);
        assert!((0..16).any(|s| m.owner(s) == 2));
    }
}
