//! An invoker host: finite memory shared by per-function warm pools.
//!
//! A host owns warm pools for every function that has ever been placed on
//! it. Placing a cold instance commits the function's configured memory
//! size until the instance is reclaimed (keep-alive expiry, eviction, or
//! end-of-run finalization); a host at capacity evicts its least-recently
//! used idle instances — across all functions — to make room, and refuses
//! placement when even that is not enough.
//!
//! Pools are **generational** to support runtime memory-size transitions
//! (the closed-loop right-sizer's resize directives): each `(function,
//! size)` deployment generation gets its own [`WarmPool`]. On a resize the
//! old generation is retired — its idle instances are evicted immediately,
//! its in-flight instances drain (they complete, are accounted at the old
//! size, and are reclaimed on release instead of going warm) — while new
//! requests cold-start into a fresh pool at the new size. A [`Placement`]
//! remembers which generation an invocation started on so completions
//! always release into the right pool.
//!
//! # Cost model
//!
//! Memory queries — [`Host::committed_mb`], [`Host::free_mb`],
//! [`Host::load`], `Host::evictable_idle_mb`, and with them
//! [`Host::feasible`] — are O(1). The host keeps a ledger of committed and
//! idle memory, updated from each pool's (live, idle) counts around every
//! pool transition (begin, complete, expiry, eviction, retirement, crash,
//! finalization), and a lower bound on the earliest idle expiry across its
//! pools. A query re-reaps the pools only once `now_ms` reaches that
//! bound, i.e. once some instance can really have expired; pool slots are
//! scanned only then, on warm reuse, and on eviction. Every pool is still
//! reaped with the exact `now − release > ttl` predicate at every query
//! that could observe an expiry, so results match a full rescan exactly.
//!
//! The ledger sums **integer** megabytes, so its running sums equal the
//! recomputed ones bit for bit: pool memory sizes must be whole MB
//! (checked by a `debug_assert!`). `Host::committed_mb_scan` and
//! `Host::idle_mb_scan` keep the full O(slots) recount as the reference
//! that `Fleet::assert_invariants` checks the ledger against.

use sizeless_platform::pool::{InstanceId, WarmPool};
use std::collections::VecDeque;

/// One pool generation of a function on a host: the memory each instance
/// commits, fixed at creation.
#[derive(Debug, Clone)]
struct FnPool {
    mem_mb: f64,
    pool: WarmPool,
}

impl FnPool {
    fn new(mem_mb: f64, default_ttl_ms: f64) -> Self {
        debug_assert!(
            mem_mb >= 0.0 && mem_mb.fract() == 0.0,
            "host memory accounting needs whole-MB sizes, got {mem_mb}"
        );
        FnPool {
            mem_mb,
            pool: WarmPool::new(default_ttl_ms),
        }
    }
}

/// The host's memory ledger: `live × mem` and `idle × mem` summed over every
/// retained pool generation (as of each pool's last reap) in whole MB, and a
/// lower bound on the earliest idle expiry across those pools.
#[derive(Debug, Clone, Copy)]
struct Ledger {
    committed_mb: u64,
    idle_mb: u64,
    next_expiry_ms: f64,
}

impl Ledger {
    const EMPTY: Ledger = Ledger {
        committed_mb: 0,
        idle_mb: 0,
        next_expiry_ms: f64::INFINITY,
    };

    /// Runs `op` on one pool generation and folds the change in its (live,
    /// idle) counts and expiry bound into the ledger.
    fn track<R>(&mut self, fp: &mut FnPool, op: impl FnOnce(&mut WarmPool) -> R) -> R {
        let (live, idle) = (fp.pool.live(), fp.pool.idle());
        let out = op(&mut fp.pool);
        let mb = fp.mem_mb as u64;
        self.committed_mb = self.committed_mb + fp.pool.live() as u64 * mb - live as u64 * mb;
        self.idle_mb = self.idle_mb + fp.pool.idle() as u64 * mb - idle as u64 * mb;
        self.next_expiry_ms = self.next_expiry_ms.min(fp.pool.next_expiry_ms());
        out
    }

    /// Removes a pruned generation's memory from the ledger.
    fn forget(&mut self, fp: &FnPool) {
        let mb = fp.mem_mb as u64;
        self.committed_mb -= fp.pool.live() as u64 * mb;
        self.idle_mb -= fp.pool.idle() as u64 * mb;
    }
}

/// A started invocation's location on a host: the pool generation it was
/// placed in plus the instance within that pool. Pass it back to
/// [`Host::complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Absolute generation id — stays valid even after older, fully
    /// drained generations are pruned.
    generation: usize,
    instance: InstanceId,
}

/// A function's pool generations on one host. Generations retire in order
/// (oldest first), so fully drained ones are pruned from the front with
/// their counters folded into the host totals; `first` keeps the absolute
/// ids in outstanding [`Placement`]s valid.
#[derive(Debug, Clone, Default)]
struct FnGens {
    /// Absolute generation id of `gens[0]`.
    first: usize,
    gens: VecDeque<FnPool>,
}

impl FnGens {
    fn active_mut(&mut self) -> Option<&mut FnPool> {
        self.gens.back_mut()
    }

    fn get_mut(&mut self, generation: usize) -> Option<&mut FnPool> {
        self.gens.get_mut(generation.checked_sub(self.first)?)
    }
}

/// An invoker host with finite memory capacity.
#[derive(Debug, Clone)]
pub struct Host {
    id: usize,
    capacity_mb: f64,
    /// Pool generations per function id.
    pools: Vec<FnGens>,
    ledger: Ledger,
    busy_mb_ms: f64,
    resize_drains: usize,
    /// Counters folded in from pruned (fully drained) generations.
    pruned_provisioned: usize,
    pruned_evictions: usize,
    pruned_expirations: usize,
    pruned_wasted_mb_ms: f64,
    /// Cleared by [`Host::crash`], restored by [`Host::rejoin`]. A down
    /// host serves nothing: placement, feasibility, and warm reuse all
    /// refuse until rejoin.
    available: bool,
}

impl Host {
    /// Creates a host with `capacity_mb` megabytes for instances.
    ///
    /// # Panics
    ///
    /// Panics unless the capacity is strictly positive.
    pub fn new(id: usize, capacity_mb: f64) -> Self {
        assert!(
            capacity_mb > 0.0 && capacity_mb.is_finite(),
            "host capacity must be positive"
        );
        Host {
            id,
            capacity_mb,
            pools: Vec::new(),
            ledger: Ledger::EMPTY,
            busy_mb_ms: 0.0,
            resize_drains: 0,
            pruned_provisioned: 0,
            pruned_evictions: 0,
            pruned_expirations: 0,
            pruned_wasted_mb_ms: 0.0,
            available: true,
        }
    }

    /// Whether the host is up (not inside a crash's downtime window).
    pub fn is_available(&self) -> bool {
        self.available
    }

    /// Crashes the host at `now_ms`: every pool generation is destroyed —
    /// idle instances accrue their waste and count as evictions, in-flight
    /// instances are torn down (their partially accrued busy time is
    /// deliberately dropped: work lost to a crash is not billable
    /// utilization) — and the host refuses all placements until
    /// [`Host::rejoin`]. Outstanding [`Placement`]s become dangling; the
    /// fleet recognizes them by crash epoch and must never pass them back
    /// to [`Host::complete`]. Returns `(in-flight instances lost, warm
    /// idle instances lost)`.
    pub fn crash(&mut self, now_ms: f64) -> (usize, usize) {
        self.available = false;
        let mut lost_warm = 0;
        for gens in &mut self.pools {
            for fp in &mut gens.gens {
                lost_warm += fp.pool.retire_idle(now_ms);
            }
        }
        let lost_in_flight = self.in_flight();
        for gens in &mut self.pools {
            gens.first += gens.gens.len();
            for dead in gens.gens.drain(..) {
                self.pruned_provisioned += dead.pool.provisioned();
                self.pruned_evictions += dead.pool.evictions();
                self.pruned_expirations += dead.pool.expirations();
                self.pruned_wasted_mb_ms += dead.pool.wasted_idle_ms() * dead.mem_mb;
            }
        }
        self.ledger = Ledger::EMPTY;
        (lost_in_flight, lost_warm)
    }

    /// Brings a crashed host back up with completely cold pools.
    pub fn rejoin(&mut self) {
        self.available = true;
    }

    /// The host's identifier (its index in the fleet).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The host's memory capacity, MB.
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Ensures an *active* pool for `fn_id` at `mem_mb` exists, retiring a
    /// stale-size active pool if needed. Returns the active generation's
    /// absolute id.
    fn ensure_pool(&mut self, fn_id: usize, mem_mb: f64, default_ttl_ms: f64, now_ms: f64) -> usize {
        if self.pools.len() <= fn_id {
            self.pools.resize_with(fn_id + 1, FnGens::default);
        }
        match self.pools[fn_id].active_mut() {
            Some(active) if active.mem_mb == mem_mb => {}
            Some(_) => {
                // Defensive path: a placement at a size the host was never
                // explicitly resized to — run the same transition a resize
                // directive would.
                self.retire_and_replace(fn_id, mem_mb, default_ttl_ms, now_ms);
            }
            None => self.pools[fn_id]
                .gens
                .push_back(FnPool::new(mem_mb, default_ttl_ms)),
        }
        let gens = &self.pools[fn_id];
        gens.first + gens.gens.len() - 1
    }

    /// The generation transition shared by [`Host::resize`] and the
    /// defensive arm of `ensure_pool`: retire the active pool's idle
    /// instances, open a fresh pool at `mem_mb`, and prune whatever is
    /// fully drained. Returns the number of idle instances drained.
    fn retire_and_replace(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        default_ttl_ms: f64,
        now_ms: f64,
    ) -> usize {
        let gens = &mut self.pools[fn_id];
        let active = gens
            .active_mut()
            // lint: allow(panic002) reason="resize only calls this after matching on an active pool"
            .expect("transition requires an active pool");
        let drained = self.ledger.track(active, |p| p.retire_idle(now_ms));
        self.resize_drains += drained;
        gens.gens.push_back(FnPool::new(mem_mb, default_ttl_ms));
        self.prune_drained(fn_id);
        drained
    }

    /// Applies a memory-size transition for `fn_id`: the active pool (if
    /// any, and only if its size differs) is retired — idle instances are
    /// evicted now, in-flight ones drain on completion — and a fresh pool
    /// at `new_mem_mb` becomes active. Returns the number of idle
    /// instances drained.
    pub fn resize(&mut self, fn_id: usize, new_mem_mb: f64, default_ttl_ms: f64, now_ms: f64) -> usize {
        let Some(gens) = self.pools.get_mut(fn_id) else {
            return 0; // never placed here: nothing to drain
        };
        match gens.active_mut() {
            Some(active) if active.mem_mb != new_mem_mb => {
                self.retire_and_replace(fn_id, new_mem_mb, default_ttl_ms, now_ms)
            }
            _ => 0,
        }
    }

    /// Drops retired generations (oldest first) once they hold no in-flight
    /// instances, folding their counters into the host totals — repeated
    /// resizes therefore keep the host's pool rescans O(live generations),
    /// not O(resizes ever applied). The active generation is never pruned.
    fn prune_drained(&mut self, fn_id: usize) {
        let gens = &mut self.pools[fn_id];
        while gens.gens.len() > 1 {
            if gens.gens.front().is_some_and(|f| f.pool.in_flight() > 0) {
                break;
            }
            let Some(dead) = gens.gens.pop_front() else {
                break;
            };
            self.ledger.forget(&dead);
            gens.first += 1;
            self.pruned_provisioned += dead.pool.provisioned();
            self.pruned_evictions += dead.pool.evictions();
            self.pruned_expirations += dead.pool.expirations();
            self.pruned_wasted_mb_ms += dead.pool.wasted_idle_ms() * dead.mem_mb;
        }
    }

    /// The number of retained pool generations for `fn_id` — the active
    /// one plus retired generations still draining in-flight work.
    pub fn generations(&self, fn_id: usize) -> usize {
        self.pools.get(fn_id).map_or(0, |g| g.gens.len())
    }

    /// Reaps every pool generation at `now_ms`, once some idle instance can
    /// have expired; below the ledger's expiry bound each reap is a no-op.
    fn reap_all(&mut self, now_ms: f64) {
        if now_ms < self.ledger.next_expiry_ms {
            return;
        }
        let mut next = f64::INFINITY;
        for fp in self.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            self.ledger.track(fp, |p| p.reap(now_ms));
            next = next.min(fp.pool.next_expiry_ms());
        }
        self.ledger.next_expiry_ms = next;
    }

    /// Memory committed to live (warm or busy) instances at `now_ms`, MB.
    /// Draining generations still commit for their in-flight instances.
    pub fn committed_mb(&mut self, now_ms: f64) -> f64 {
        self.reap_all(now_ms);
        self.ledger.committed_mb as f64
    }

    /// [`Host::committed_mb`] recounted from every slot of every retained
    /// pool generation, without reaping — the O(slots) reference the ledger
    /// must equal after any query.
    pub(crate) fn committed_mb_scan(&self) -> f64 {
        self.pools
            .iter()
            .flat_map(|g| &g.gens)
            .map(|fp| fp.pool.scan_live_idle().0 as f64 * fp.mem_mb)
            .sum()
    }

    /// Uncommitted memory at `now_ms`, MB.
    pub fn free_mb(&mut self, now_ms: f64) -> f64 {
        self.capacity_mb - self.committed_mb(now_ms)
    }

    /// Fraction of capacity committed at `now_ms`, in `[0, 1]`.
    pub fn load(&mut self, now_ms: f64) -> f64 {
        self.committed_mb(now_ms) / self.capacity_mb
    }

    /// Warm instances of `fn_id` available for reuse at `now_ms` — active
    /// generation only; retired generations never serve requests.
    pub fn warm_idle(&mut self, fn_id: usize, now_ms: f64) -> usize {
        if !self.available {
            return 0;
        }
        match self.pools.get_mut(fn_id).and_then(FnGens::active_mut) {
            Some(fp) => self.ledger.track(fp, |p| p.warm_idle_at(now_ms)),
            None => 0,
        }
    }

    /// Memory reclaimable by evicting idle instances (any function) at
    /// `now_ms`, MB.
    pub(crate) fn evictable_idle_mb(&mut self, now_ms: f64) -> f64 {
        self.reap_all(now_ms);
        self.ledger.idle_mb as f64
    }

    /// `evictable_idle_mb` recounted from every slot, without
    /// reaping — the O(slots) reference the ledger must equal after any
    /// query.
    pub(crate) fn idle_mb_scan(&self) -> f64 {
        self.pools
            .iter()
            .flat_map(|g| &g.gens)
            .map(|fp| fp.pool.scan_live_idle().1 as f64 * fp.mem_mb)
            .sum()
    }

    /// Whether a request for `fn_id` at `mem_mb` could start on this host
    /// at `now_ms` — warm reuse, a free-memory placement, or a placement
    /// after evicting idle instances.
    pub fn feasible(&mut self, fn_id: usize, mem_mb: f64, now_ms: f64) -> bool {
        if !self.available {
            return false;
        }
        if self.active_matches(fn_id, mem_mb) && self.warm_idle(fn_id, now_ms) > 0 {
            return true;
        }
        mem_mb <= self.capacity_mb
            && self.free_mb(now_ms) + self.evictable_idle_mb(now_ms) + 1e-9 >= mem_mb
    }

    fn active_matches(&self, fn_id: usize, mem_mb: f64) -> bool {
        self.pools
            .get(fn_id)
            .and_then(|g| g.gens.back())
            .is_some_and(|fp| fp.mem_mb == mem_mb)
    }

    /// Evicts the least-recently released idle instance across all pools.
    /// Returns `false` when nothing is idle.
    fn evict_globally_lru(&mut self, now_ms: f64) -> bool {
        // Reaping first leaves idle-free pools with nothing to offer, so
        // only pools still holding idle instances are scanned.
        self.reap_all(now_ms);
        let ledger = &mut self.ledger;
        let victim = self
            .pools
            .iter_mut()
            .flat_map(|g| g.gens.iter_mut())
            .filter(|fp| fp.pool.idle() > 0)
            .filter_map(|fp| {
                let t = ledger.track(fp, |p| p.oldest_idle_release_ms(now_ms))?;
                Some((fp, t))
            })
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(fp, _)| fp);
        match victim {
            Some(fp) => self.ledger.track(fp, |p| p.evict_lru_idle(now_ms)),
            None => false,
        }
    }

    /// Starts an invocation of `fn_id` on this host: reuses a warm instance
    /// or places a cold one (evicting idle instances if memory is tight).
    /// Returns `None` when the host cannot serve the request.
    pub fn try_begin(
        &mut self,
        fn_id: usize,
        mem_mb: f64,
        default_ttl_ms: f64,
        now_ms: f64,
    ) -> Option<(Placement, bool)> {
        if !self.available {
            return None;
        }
        let generation = self.ensure_pool(fn_id, mem_mb, default_ttl_ms, now_ms);
        if self.warm_idle(fn_id, now_ms) == 0 {
            if mem_mb > self.capacity_mb {
                return None;
            }
            while self.free_mb(now_ms) + 1e-9 < mem_mb {
                if !self.evict_globally_lru(now_ms) {
                    return None;
                }
            }
        }
        let fp = self.pools[fn_id]
            .get_mut(generation)
            // lint: allow(panic002) reason="ensure_pool above just returned this generation as active"
            .expect("active generation exists");
        self.ledger
            .track(fp, |p| p.try_begin(now_ms))
            .map(|(instance, cold)| (Placement { generation, instance }, cold))
    }

    /// Completes an invocation at `finish_ms`: releases the instance with
    /// the keep-alive window `ttl_ms` and accounts `busy_ms` (init +
    /// execution + monitoring overhead) of busy memory-time at the size the
    /// invocation actually ran at. Instances of retired (resized-away)
    /// generations are reclaimed immediately instead of going warm.
    pub fn complete(
        &mut self,
        fn_id: usize,
        placement: Placement,
        finish_ms: f64,
        ttl_ms: f64,
        busy_ms: f64,
    ) {
        let gens = &mut self.pools[fn_id];
        let retired = placement.generation + 1 != gens.first + gens.gens.len();
        let fp = gens
            .get_mut(placement.generation)
            // lint: allow(panic002) reason="completions carry a placement minted at dispatch, so the generation exists on this host"
            .expect("completion for a generation never created on this host");
        let ttl = if retired { 0.0 } else { ttl_ms };
        self.ledger.track(fp, |p| {
            p.complete_with_ttl(placement.instance, finish_ms, ttl)
        });
        self.busy_mb_ms += busy_ms * fp.mem_mb;
        if retired {
            self.resize_drains += 1;
            self.prune_drained(fn_id);
        }
    }

    /// Invocations currently executing on this host.
    pub fn in_flight(&self) -> usize {
        self.pools
            .iter()
            .flat_map(|g| &g.gens)
            .map(|fp| fp.pool.in_flight())
            .sum()
    }

    /// Instances ever provisioned on this host.
    pub fn provisioned(&self) -> usize {
        self.pruned_provisioned
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.provisioned())
                .sum::<usize>()
    }

    /// Instances evicted for memory pressure or retired by a resize.
    pub fn evictions(&self) -> usize {
        self.pruned_evictions
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.evictions())
                .sum::<usize>()
    }

    /// Instances reclaimed by keep-alive expiry (including the immediate
    /// reclaim of draining instances on completion).
    pub fn expirations(&self) -> usize {
        self.pruned_expirations
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.expirations())
                .sum::<usize>()
    }

    /// Instances drained because of a memory-size transition: idle ones
    /// evicted at resize time plus in-flight ones reclaimed on completion.
    pub fn resize_drains(&self) -> usize {
        self.resize_drains
    }

    /// Busy memory-time accumulated so far, MB·ms.
    pub fn busy_mb_ms(&self) -> f64 {
        self.busy_mb_ms
    }

    /// Warm-but-idle memory-time accrued so far, MB·ms.
    pub fn wasted_mb_ms(&self) -> f64 {
        self.pruned_wasted_mb_ms
            + self
                .pools
                .iter()
                .flat_map(|g| &g.gens)
                .map(|fp| fp.pool.wasted_idle_ms() * fp.mem_mb)
                .sum::<f64>()
    }

    /// Reclaims all idle instances at the end of a run, accruing trailing
    /// idle memory-time.
    pub fn finalize(&mut self, end_ms: f64) {
        for fp in self.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            self.ledger.track(fp, |p| p.finalize(end_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TTL: f64 = 60_000.0;

    #[test]
    fn placement_commits_memory() {
        let mut h = Host::new(0, 1024.0);
        let (_, cold) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        assert!(cold);
        assert_eq!(h.committed_mb(0.0), 512.0);
        assert_eq!(h.free_mb(0.0), 512.0);
        assert_eq!(h.in_flight(), 1);
    }

    #[test]
    fn capacity_refuses_when_all_busy() {
        let mut h = Host::new(0, 1024.0);
        let _ = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let _ = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        assert!(h.try_begin(0, 512.0, TTL, 1.0).is_none());
        assert!(h.try_begin(1, 256.0, TTL, 1.0).is_none());
    }

    #[test]
    fn warm_reuse_avoids_cold_start() {
        let mut h = Host::new(0, 1024.0);
        let (p, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 50.0, TTL, 50.0);
        let (_, cold) = h.try_begin(0, 512.0, TTL, 100.0).unwrap();
        assert!(!cold);
        assert_eq!(h.provisioned(), 1);
    }

    #[test]
    fn evicts_idle_instance_of_other_function_to_fit() {
        let mut h = Host::new(0, 1024.0);
        // Function 0 fills the host, then goes idle.
        let (a, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (b, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, a, 40.0, TTL, 40.0);
        h.complete(0, b, 60.0, TTL, 60.0);
        // Function 1 needs 768 MB: both idle instances must go.
        let (_, cold) = h.try_begin(1, 768.0, TTL, 100.0).unwrap();
        assert!(cold);
        assert_eq!(h.evictions(), 2);
        assert_eq!(h.committed_mb(100.0), 768.0);
        // Wasted time: (100-40) + (100-60) ms at 512 MB each.
        assert_eq!(h.wasted_mb_ms(), (60.0 + 40.0) * 512.0);
    }

    #[test]
    fn feasibility_tracks_memory_and_warmth() {
        let mut h = Host::new(0, 1024.0);
        assert!(!h.feasible(0, 2048.0, 0.0), "larger than the host");
        assert!(h.feasible(0, 1024.0, 0.0));
        let (p, _) = h.try_begin(0, 1024.0, TTL, 0.0).unwrap();
        assert!(!h.feasible(1, 512.0, 1.0), "fully busy");
        h.complete(0, p, 10.0, TTL, 10.0);
        assert!(h.feasible(0, 1024.0, 20.0), "warm instance");
        assert!(h.feasible(1, 512.0, 20.0), "evictable idle instance");
    }

    #[test]
    fn utilization_accounting() {
        let mut h = Host::new(0, 1024.0);
        let (p, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 200.0, TTL, 200.0);
        assert_eq!(h.busy_mb_ms(), 200.0 * 512.0);
        h.finalize(1_200.0);
        assert_eq!(h.wasted_mb_ms(), 1_000.0 * 512.0);
        assert_eq!(h.committed_mb(1_200.0), 0.0);
    }

    #[test]
    fn resize_evicts_idle_and_drains_in_flight_at_old_size() {
        let mut h = Host::new(0, 4096.0);
        // Two instances at 512 MB: one goes idle, one stays in flight.
        let (idle, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (busy, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, idle, 50.0, TTL, 50.0);

        assert_eq!(h.resize(0, 1024.0, TTL, 100.0), 1, "idle instance drained");
        // The idle 512 MB instance is gone; the busy one still commits.
        assert_eq!(h.committed_mb(100.0), 512.0);
        assert_eq!(h.warm_idle(0, 100.0), 0, "old-size warmth is not reusable");

        // New requests cold-start at the new size.
        let (fresh, cold) = h.try_begin(0, 1024.0, TTL, 110.0).unwrap();
        assert!(cold);
        assert_eq!(h.committed_mb(110.0), 512.0 + 1024.0);

        // The draining in-flight instance completes at the old size: busy
        // time is accounted at 512 MB and it does NOT go warm.
        let before = h.busy_mb_ms();
        h.complete(0, busy, 200.0, TTL, 200.0);
        assert_eq!(h.busy_mb_ms() - before, 200.0 * 512.0);
        assert_eq!(h.committed_mb(200.0), 1024.0);
        assert_eq!(h.resize_drains(), 2, "one idle + one in-flight drain");

        // The new-size instance keeps normal keep-alive semantics.
        h.complete(0, fresh, 300.0, TTL, 190.0);
        assert_eq!(h.warm_idle(0, 310.0), 1);
        let (_, cold2) = h.try_begin(0, 1024.0, TTL, 320.0).unwrap();
        assert!(!cold2, "warm reuse at the new size");
    }

    #[test]
    fn resize_to_same_size_or_unknown_function_is_a_no_op() {
        let mut h = Host::new(0, 1024.0);
        assert_eq!(h.resize(5, 512.0, TTL, 0.0), 0, "function never placed");
        let (p, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, p, 10.0, TTL, 10.0);
        assert_eq!(h.resize(0, 512.0, TTL, 20.0), 0, "same size keeps warmth");
        let (_, cold) = h.try_begin(0, 512.0, TTL, 30.0).unwrap();
        assert!(!cold);
    }

    #[test]
    fn drained_generations_are_pruned_with_counters_preserved() {
        let mut h = Host::new(0, 8192.0);
        let (a, _) = h.try_begin(0, 256.0, TTL, 0.0).unwrap();
        h.complete(0, a, 50.0, TTL, 50.0);
        // The resize drains the idle instance; the old generation is empty
        // and is pruned immediately, counters folded into host totals.
        assert_eq!(h.resize(0, 512.0, TTL, 100.0), 1);
        assert_eq!(h.generations(0), 1);
        assert_eq!(h.provisioned(), 1);
        assert_eq!(h.evictions(), 1);
        assert_eq!(h.wasted_mb_ms(), 50.0 * 256.0);

        // An oscillating right-sizer never accumulates generations while
        // nothing is in flight.
        for (i, mb) in [256.0, 512.0].iter().cycle().take(10).enumerate() {
            h.resize(0, *mb, TTL, 200.0 + i as f64);
        }
        assert_eq!(h.generations(0), 1);

        // In-flight work delays pruning exactly until its completion.
        let (b, _) = h.try_begin(0, 512.0, TTL, 300.0).unwrap();
        h.resize(0, 1024.0, TTL, 310.0);
        assert_eq!(h.generations(0), 2, "draining generation retained");
        h.complete(0, b, 330.0, TTL, 30.0);
        assert_eq!(h.generations(0), 1, "drained generation pruned");
        assert_eq!(h.provisioned(), 2);
        assert_eq!(h.busy_mb_ms(), 50.0 * 256.0 + 30.0 * 512.0);
        assert_eq!(h.resize_drains(), 2, "one idle drain + one in-flight drain");
    }

    #[test]
    fn repeated_resizes_stack_generations_consistently() {
        let mut h = Host::new(0, 8192.0);
        let sizes = [256.0, 1024.0, 128.0, 2048.0];
        let mut in_flight = Vec::new();
        for (i, &mb) in sizes.iter().enumerate() {
            let now = i as f64 * 100.0;
            h.resize(0, mb, TTL, now);
            let (p, cold) = h.try_begin(0, mb, TTL, now + 10.0).unwrap();
            assert!(cold, "every generation cold-starts");
            in_flight.push((p, mb));
        }
        // All four generations still commit their in-flight memory.
        assert_eq!(h.committed_mb(400.0), sizes.iter().sum::<f64>());
        assert_eq!(h.in_flight(), 4);
        // Completions route to their own generation and account correctly.
        let mut expected_busy = 0.0;
        for (p, mb) in in_flight {
            h.complete(0, p, 500.0, TTL, 100.0);
            expected_busy += 100.0 * mb;
        }
        assert_eq!(h.busy_mb_ms(), expected_busy);
        // Only the newest generation may hold warmth.
        assert_eq!(h.warm_idle(0, 510.0), 1);
        assert_eq!(h.committed_mb(510.0), 2048.0);
    }

    #[test]
    fn crash_loses_warmth_and_in_flight_and_refuses_placement() {
        let mut h = Host::new(0, 2048.0);
        let (idle, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (_busy, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let (_other, _) = h.try_begin(1, 256.0, TTL, 0.0).unwrap();
        h.complete(0, idle, 40.0, TTL, 40.0);

        assert!(h.is_available());
        let (lost_in_flight, lost_warm) = h.crash(100.0);
        assert_eq!(lost_in_flight, 2, "both busy instances are torn down");
        assert_eq!(lost_warm, 1, "the idle instance is lost too");

        assert!(!h.is_available());
        assert_eq!(h.in_flight(), 0);
        assert_eq!(h.committed_mb(100.0), 0.0, "a down host commits nothing");
        assert_eq!(h.warm_idle(0, 100.0), 0);
        assert!(!h.feasible(0, 512.0, 100.0));
        assert!(h.try_begin(0, 512.0, TTL, 100.0).is_none());
    }

    #[test]
    fn crash_and_rejoin_keep_counters_conserved() {
        let mut h = Host::new(0, 2048.0);
        let (a, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        h.complete(0, a, 50.0, TTL, 50.0);
        let (_b, _) = h.try_begin(1, 256.0, TTL, 60.0).unwrap();
        let busy_before = h.busy_mb_ms();

        let (lost_in_flight, lost_warm) = h.crash(100.0);
        assert_eq!((lost_in_flight, lost_warm), (1, 1));
        // Lifetime counters fold into the host totals instead of vanishing.
        assert_eq!(h.provisioned(), 2);
        assert_eq!(h.evictions(), 1, "crashed idle counts as an eviction");
        assert_eq!(h.wasted_mb_ms(), (100.0 - 50.0) * 512.0);
        assert_eq!(
            h.busy_mb_ms(),
            busy_before,
            "partial busy time of crashed in-flight work is dropped"
        );

        // Rejoin serves cold, with fresh generations.
        h.rejoin();
        assert!(h.is_available());
        let (_, cold) = h.try_begin(0, 512.0, TTL, 200.0).unwrap();
        assert!(cold, "no warmth survives a crash");
        assert_eq!(h.provisioned(), 3);
        assert_eq!(h.in_flight(), 1);
    }

    #[test]
    #[should_panic(expected = "never created on this host")]
    fn completing_a_crashed_placement_panics() {
        // The fleet must recognize crashed placements by epoch and never
        // release them back into a host — doing so is a logic error.
        let mut h = Host::new(0, 1024.0);
        let (p, _) = h.try_begin(0, 512.0, TTL, 0.0).unwrap();
        let _ = h.crash(10.0);
        h.rejoin();
        let _ = h.try_begin(0, 512.0, TTL, 20.0).unwrap();
        h.complete(0, p, 30.0, TTL, 30.0);
    }

    /// Asserts the ledger equals the full slot recount, and that a query at
    /// `now_ms` sees exactly what reaping every pool first would give.
    fn assert_ledger_exact(h: &mut Host, now_ms: f64) {
        assert_eq!(h.ledger.committed_mb as f64, h.committed_mb_scan());
        assert_eq!(h.ledger.idle_mb as f64, h.idle_mb_scan());
        let mut reaped = h.clone();
        for fp in reaped.pools.iter_mut().flat_map(|g| g.gens.iter_mut()) {
            fp.pool.reap(now_ms);
        }
        assert_eq!(h.committed_mb(now_ms), reaped.committed_mb_scan());
        assert_eq!(h.evictable_idle_mb(now_ms), reaped.idle_mb_scan());
        assert_eq!(h.expirations(), reaped.expirations());
        assert_eq!(h.wasted_mb_ms().to_bits(), reaped.wasted_mb_ms().to_bits());
        assert_eq!(h.ledger.committed_mb as f64, h.committed_mb_scan());
        assert_eq!(h.ledger.idle_mb as f64, h.idle_mb_scan());
    }

    proptest! {
        /// The O(1) memory ledger equals the full slot recount after any
        /// sequence of begins, completions (TTL 0 and > 0), resizes,
        /// crashes and rejoins, and finalization at non-decreasing times.
        #[test]
        fn ledger_matches_full_scan(
            ops in proptest::collection::vec(
                (0usize..10, 0.0f64..250.0, 0usize..3, 0usize..4, 0.0f64..1.0),
                1..200,
            ),
        ) {
            const SIZES: [f64; 4] = [128.0, 256.0, 512.0, 1024.0];
            let mut h = Host::new(0, 2048.0);
            let mut sizes = [256.0; 3];
            let mut in_flight: Vec<(usize, Placement)> = Vec::new();
            let mut now = 0.0;
            for (op, gap, fn_id, k, pick) in ops {
                now += gap;
                match op {
                    0..=2 => {
                        if let Some((p, _)) = h.try_begin(fn_id, sizes[fn_id], TTL, now) {
                            in_flight.push((fn_id, p));
                        }
                    }
                    3 | 4 if !in_flight.is_empty() => {
                        let i = ((in_flight.len() as f64 * pick) as usize).min(in_flight.len() - 1);
                        let (f, p) = in_flight.swap_remove(i);
                        let ttl = if op == 3 { 0.0 } else { [50.0, 400.0, 1_500.0, TTL][k] };
                        h.complete(f, p, now, ttl, gap);
                    }
                    5 => {
                        sizes[fn_id] = SIZES[k];
                        h.resize(fn_id, SIZES[k], TTL, now);
                    }
                    6 if h.is_available() => {
                        h.crash(now);
                        in_flight.clear();
                    }
                    6 => h.rejoin(),
                    7 => h.finalize(now),
                    _ => {
                        let _ = h.feasible(fn_id, SIZES[k], now);
                        let _ = h.warm_idle(fn_id, now);
                    }
                }
                assert_ledger_exact(&mut h, now);
            }
            h.finalize(now + TTL);
            prop_assert_eq!(h.idle_mb_scan(), 0.0);
            assert_ledger_exact(&mut h, now + TTL);
        }
    }
}
