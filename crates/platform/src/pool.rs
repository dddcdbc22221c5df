//! The instance model: warm pools of function instances.
//!
//! On Lambda, every function owns a fleet of sandboxes ("instances"): an
//! invocation either reuses a warm instance or pays a cold start, and idle
//! instances are reclaimed after a keep-alive window. [`WarmPool`] is that
//! model, shared by the single-function measurement harness
//! (`sizeless_workload::run_experiment`) and the cluster-level fleet
//! simulator (`sizeless_fleet`), so both layers agree on cold-start
//! semantics.
//!
//! Beyond the seed implementation this pool supports:
//!
//! * a **finite capacity bound** ([`WarmPool::with_capacity`]) — the fleet
//!   maps host memory onto it, and [`WarmPool::try_begin`] reports
//!   exhaustion instead of provisioning without bound;
//! * **per-instance keep-alive TTLs** ([`WarmPool::complete_with_ttl`]) so
//!   pluggable keep-alive policies can shrink or stretch the window per
//!   invocation;
//! * **wasted-time accounting**: every millisecond an instance sits warm
//!   but idle is accrued into [`WarmPool::wasted_idle_ms`], the basis of
//!   the fleet's wasted MB·ms metric;
//! * **eviction** ([`WarmPool::evict_lru_idle`]) so a host can reclaim
//!   memory from idle instances to place a new one.
//!
//! # Cost model
//!
//! Counts ([`WarmPool::live`], [`WarmPool::idle`], [`WarmPool::in_flight`])
//! are O(1) counters. Reaping is lazy: the pool keeps a conservative lower
//! bound on its next idle expiry ([`WarmPool::next_expiry_ms`]), and
//! [`WarmPool::reap`] returns without touching a slot while `now_ms` is
//! below it. Slots are scanned only when an instance can really have
//! expired, on warm reuse, and on eviction/retirement/finalization. The
//! skip changes no result: expiry keeps the exact predicate
//! `now − release > ttl`, so expirations and wasted time accrue in the same
//! order as a scan on every call.

use serde::{Deserialize, Serialize};

/// One instance slot. Dead slots are kept (never reused) so
/// [`InstanceId`]s stay stable for in-flight invocations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Slot {
    /// `f64::INFINITY` while an invocation runs on the instance.
    busy_until_ms: f64,
    /// When the instance last finished an invocation (or was provisioned).
    last_release_ms: f64,
    /// Keep-alive window for this instance (defaults to the pool TTL).
    ttl_ms: f64,
    /// Reclaimed (expired or evicted); the slot no longer holds memory.
    dead: bool,
}

impl Slot {
    fn is_busy(&self) -> bool {
        self.busy_until_ms == f64::INFINITY
    }

    fn is_idle(&self) -> bool {
        !self.dead && !self.is_busy()
    }
}

/// A per-function pool of warm instances, deciding which invocations pay a
/// cold start. Instances are reclaimed after their keep-alive TTL (the
/// cold-start model's idle TTL by default).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmPool {
    slots: Vec<Slot>,
    idle_ttl_ms: f64,
    /// Maximum number of live (warm or busy) instances; `None` = unbounded.
    capacity: Option<usize>,
    live: usize,
    busy: usize,
    evictions: usize,
    expirations: usize,
    wasted_idle_ms: f64,
    /// Lower bound on `last_release_ms + ttl_ms` over idle slots: no idle
    /// slot can expire at a `now_ms` below it (see [`WarmPool::reap`]).
    next_expiry_ms: f64,
}

/// Identifies an acquired instance until [`WarmPool::complete`] is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceId(usize);

impl WarmPool {
    /// Creates an unbounded pool with the given idle TTL (ms).
    pub fn new(idle_ttl_ms: f64) -> Self {
        WarmPool {
            idle_ttl_ms,
            next_expiry_ms: f64::INFINITY,
            ..WarmPool::default()
        }
    }

    /// Creates a pool that never holds more than `capacity` live instances.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(idle_ttl_ms: f64, capacity: usize) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        WarmPool {
            idle_ttl_ms,
            capacity: Some(capacity),
            next_expiry_ms: f64::INFINITY,
            ..WarmPool::default()
        }
    }

    /// The default keep-alive window of this pool, ms.
    pub fn idle_ttl_ms(&self) -> f64 {
        self.idle_ttl_ms
    }

    /// Reclaims instances whose keep-alive window elapsed before `now_ms`,
    /// accruing their idle tail as wasted time. O(1) while `now_ms` is
    /// below [`WarmPool::next_expiry_ms`]; otherwise one scan of the slots.
    pub fn reap(&mut self, now_ms: f64) {
        // Sound skip: rounding is monotone and `now_ms`/`ttl_ms` are
        // representable, so `now − release > ttl` (in f64) implies
        // `now ≥ release + ttl` (in f64) ≥ the bound.
        if now_ms < self.next_expiry_ms {
            return;
        }
        self.reap_scan(now_ms);
    }

    /// The full scan behind [`WarmPool::reap`]: expires every idle slot
    /// past its keep-alive window (in slot order) and recomputes the exact
    /// expiry bound over the survivors.
    fn reap_scan(&mut self, now_ms: f64) {
        let mut next = f64::INFINITY;
        for slot in &mut self.slots {
            if !slot.is_idle() {
                continue;
            }
            if now_ms - slot.last_release_ms > slot.ttl_ms {
                slot.dead = true;
                self.live -= 1;
                self.expirations += 1;
                self.wasted_idle_ms += slot.ttl_ms;
            } else {
                next = next.min(slot.last_release_ms + slot.ttl_ms);
            }
        }
        self.next_expiry_ms = next;
    }

    /// A lower bound on when the next idle instance can expire: [`reap`]
    /// at any `now_ms` below it reclaims nothing. `f64::INFINITY` when no
    /// idle instance can expire.
    ///
    /// [`reap`]: WarmPool::reap
    pub fn next_expiry_ms(&self) -> f64 {
        self.next_expiry_ms
    }

    /// Acquires an instance for an invocation arriving at `at_ms`, or
    /// `None` when every live instance is busy and the pool is at its
    /// capacity bound. Returns the instance and whether the invocation is a
    /// cold start.
    pub fn try_begin(&mut self, at_ms: f64) -> Option<(InstanceId, bool)> {
        self.reap(at_ms);
        // Reuse the most recently released warm instance (LIFO, like Lambda).
        // With nothing idle there is no slot worth scanning.
        let mut best: Option<usize> = None;
        if self.idle() > 0 {
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.is_idle() && slot.busy_until_ms <= at_ms {
                    match best {
                        Some(b) if self.slots[b].last_release_ms >= slot.last_release_ms => {}
                        _ => best = Some(i),
                    }
                }
            }
        }
        if let Some(i) = best {
            self.wasted_idle_ms += at_ms - self.slots[i].last_release_ms;
            self.slots[i].busy_until_ms = f64::INFINITY;
            self.busy += 1;
            return Some((InstanceId(i), false));
        }
        if self.capacity.is_some_and(|cap| self.live >= cap) {
            return None;
        }
        self.slots.push(Slot {
            busy_until_ms: f64::INFINITY,
            last_release_ms: at_ms,
            ttl_ms: self.idle_ttl_ms,
            dead: false,
        });
        self.live += 1;
        self.busy += 1;
        Some((InstanceId(self.slots.len() - 1), true))
    }

    /// Acquires an instance for an invocation arriving at `at_ms`. Returns
    /// the instance and whether the invocation is a cold start.
    ///
    /// # Panics
    ///
    /// Panics if the pool has a capacity bound and it is exhausted — use
    /// [`WarmPool::try_begin`] for bounded pools.
    pub fn begin(&mut self, at_ms: f64) -> (InstanceId, bool) {
        self.try_begin(at_ms)
            // lint: allow(panic002) reason="documented # Panics contract: bounded pools must use try_begin"
            .expect("warm pool at capacity (use try_begin for bounded pools)")
    }

    /// Marks the instance free again at `finish_ms`, keeping the pool's
    /// default keep-alive window.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently busy.
    pub fn complete(&mut self, id: InstanceId, finish_ms: f64) {
        let ttl = self.idle_ttl_ms;
        self.complete_with_ttl(id, finish_ms, ttl);
    }

    /// Marks the instance free again at `finish_ms` with a per-instance
    /// keep-alive window of `ttl_ms` (a keep-alive policy's decision for
    /// this release). A zero TTL reclaims the instance immediately.
    ///
    /// # Panics
    ///
    /// Panics if the instance is not currently busy or `ttl_ms` is negative.
    pub fn complete_with_ttl(&mut self, id: InstanceId, finish_ms: f64, ttl_ms: f64) {
        assert!(ttl_ms >= 0.0 && !ttl_ms.is_nan(), "TTL must be non-negative");
        let slot = &mut self.slots[id.0];
        assert!(slot.is_busy(), "instance completed twice");
        slot.busy_until_ms = finish_ms;
        slot.last_release_ms = finish_ms;
        slot.ttl_ms = ttl_ms;
        self.busy -= 1;
        if ttl_ms == 0.0 {
            slot.dead = true;
            self.live -= 1;
            self.expirations += 1;
        } else {
            self.next_expiry_ms = self.next_expiry_ms.min(finish_ms + ttl_ms);
        }
    }

    /// Evicts the least-recently released idle instance (to reclaim its
    /// memory for another pool on the same host), accruing its idle span as
    /// wasted time. Returns `false` when no instance is idle.
    pub fn evict_lru_idle(&mut self, now_ms: f64) -> bool {
        self.reap(now_ms);
        let lru = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_idle())
            .min_by(|(_, a), (_, b)| a.last_release_ms.total_cmp(&b.last_release_ms))
            .map(|(i, _)| i);
        match lru {
            Some(i) => {
                self.wasted_idle_ms += now_ms - self.slots[i].last_release_ms;
                self.slots[i].dead = true;
                self.live -= 1;
                self.evictions += 1;
                true
            }
            None => false,
        }
    }

    /// Evicts **every** idle instance at once, accruing their idle spans as
    /// wasted time, and returns how many were reclaimed. In-flight
    /// instances are left to finish (the caller stops reusing the pool).
    ///
    /// This is the memory-size-transition primitive: when a function is
    /// redeployed at a new size, warm instances of the old size cannot
    /// serve it — idle ones are reclaimed immediately and busy ones drain.
    pub fn retire_idle(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        let mut reclaimed = 0;
        for slot in &mut self.slots {
            if slot.is_idle() {
                self.wasted_idle_ms += now_ms - slot.last_release_ms;
                slot.dead = true;
                self.live -= 1;
                self.evictions += 1;
                reclaimed += 1;
            }
        }
        self.next_expiry_ms = f64::INFINITY;
        reclaimed
    }

    /// The release time of the least-recently released idle instance, if
    /// any — lets a host pick the globally best eviction victim.
    pub fn oldest_idle_release_ms(&mut self, now_ms: f64) -> Option<f64> {
        self.reap(now_ms);
        self.slots
            .iter()
            .filter(|s| s.is_idle())
            .map(|s| s.last_release_ms)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Reclaims every idle instance at the end of a run, accruing trailing
    /// idle time (clamped to each instance's TTL) as wasted time. In-flight
    /// instances are left untouched.
    pub fn finalize(&mut self, end_ms: f64) {
        for slot in &mut self.slots {
            if slot.is_idle() {
                slot.dead = true;
                self.live -= 1;
                self.expirations += 1;
                self.wasted_idle_ms += (end_ms - slot.last_release_ms).clamp(0.0, slot.ttl_ms);
            }
        }
        self.next_expiry_ms = f64::INFINITY;
    }

    /// Number of instances ever provisioned.
    pub fn provisioned(&self) -> usize {
        self.slots.len()
    }

    /// Number of live (warm or busy) instances as of `now_ms`.
    pub fn live_at(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        self.live
    }

    /// Number of live (warm or busy) instances as of the last reap —
    /// no reaping, O(1).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of idle (warm, not busy) instances as of the last reap — no
    /// reaping, O(1).
    pub fn idle(&self) -> usize {
        self.live - self.busy
    }

    /// `(live, idle)` instance counts recounted from the slots themselves,
    /// without reaping — the O(slots) reference that the O(1)
    /// [`WarmPool::live`]/[`WarmPool::idle`] counters must always equal.
    pub fn scan_live_idle(&self) -> (usize, usize) {
        self.slots
            .iter()
            .filter(|s| !s.dead)
            .fold((0, 0), |(live, idle), s| {
                (live + 1, idle + usize::from(!s.is_busy()))
            })
    }

    /// Number of instances currently executing an invocation.
    pub fn in_flight(&self) -> usize {
        self.busy
    }

    /// Number of warm instances available for reuse at `now_ms`.
    pub fn warm_idle_at(&mut self, now_ms: f64) -> usize {
        self.reap(now_ms);
        self.idle()
    }

    /// Instances evicted to reclaim memory (capacity pressure).
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Instances reclaimed because their keep-alive window elapsed.
    pub fn expirations(&self) -> usize {
        self.expirations
    }

    /// Total warm-but-idle instance time accrued so far, ms. Multiplied by
    /// the instance memory size this is the "wasted memory-time" a
    /// keep-alive policy trades against cold starts.
    pub fn wasted_idle_ms(&self) -> f64 {
        self.wasted_idle_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn warm_pool_reuses_instances() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, cold_a) = pool.begin(0.0);
        assert!(cold_a);
        pool.complete(a, 50.0);
        let (_b, cold_b) = pool.begin(100.0);
        assert!(!cold_b);
        assert_eq!(pool.provisioned(), 1);
    }

    #[test]
    fn warm_pool_scales_out_under_concurrency() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, cold_b) = pool.begin(1.0); // a still busy
        assert!(cold_b);
        pool.complete(a, 30.0);
        pool.complete(b, 31.0);
        assert_eq!(pool.provisioned(), 2);
    }

    #[test]
    fn warm_pool_expires_idle_instances() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 10.0);
        let (_b, cold) = pool.begin(5_000.0); // idle 4990 ms > TTL
        assert!(cold);
        assert_eq!(pool.provisioned(), 2);
        assert_eq!(pool.expirations(), 1);
        // The expired instance wasted exactly its keep-alive window.
        assert_eq!(pool.wasted_idle_ms(), 1_000.0);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_complete_panics() {
        let mut pool = WarmPool::new(1_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 1.0);
        pool.complete(a, 2.0);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut pool = WarmPool::with_capacity(10_000.0, 2);
        let (_a, _) = pool.try_begin(0.0).unwrap();
        let (_b, _) = pool.try_begin(1.0).unwrap();
        assert!(pool.try_begin(2.0).is_none(), "third concurrent instance");
        assert_eq!(pool.provisioned(), 2);
    }

    #[test]
    fn capacity_frees_after_expiry() {
        let mut pool = WarmPool::with_capacity(100.0, 1);
        let (a, _) = pool.try_begin(0.0).unwrap();
        pool.complete(a, 10.0);
        // TTL elapsed: the slot dies, so a fresh instance fits again.
        let (b, cold) = pool.try_begin(500.0).unwrap();
        assert!(cold);
        pool.complete(b, 510.0);
        assert_eq!(pool.expirations(), 1);
    }

    #[test]
    fn warm_reuse_accrues_idle_time() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 100.0);
        let (_b, cold) = pool.begin(350.0);
        assert!(!cold);
        assert_eq!(pool.wasted_idle_ms(), 250.0);
    }

    #[test]
    fn zero_ttl_reclaims_immediately() {
        let mut pool = WarmPool::new(10_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete_with_ttl(a, 50.0, 0.0);
        let (_b, cold) = pool.begin(51.0);
        assert!(cold, "no-keepalive instance must not be reused");
        assert_eq!(pool.wasted_idle_ms(), 0.0);
    }

    #[test]
    fn eviction_prefers_lru_and_accounts_waste() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(1.0);
        pool.complete(a, 100.0);
        pool.complete(b, 300.0);
        assert!(pool.evict_lru_idle(400.0));
        assert_eq!(pool.evictions(), 1);
        // Evicted the instance released at 100 ms → 300 ms idle wasted.
        assert_eq!(pool.wasted_idle_ms(), 300.0);
        // The remaining warm instance is the one released at 300 ms.
        let (_c, cold) = pool.begin(400.0);
        assert!(!cold);
    }

    #[test]
    fn retire_idle_reclaims_all_idle_but_leaves_busy() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        let (b, _) = pool.begin(0.0);
        let (_c, _) = pool.begin(0.0); // stays busy through the retirement
        pool.complete(a, 100.0);
        pool.complete(b, 200.0);
        assert_eq!(pool.retire_idle(300.0), 2);
        assert_eq!(pool.evictions(), 2);
        assert_eq!(pool.in_flight(), 1);
        assert_eq!(pool.live_at(300.0), 1);
        // Wasted: (300-100) + (300-200) ms of idle time.
        assert_eq!(pool.wasted_idle_ms(), 300.0);
        // Nothing idle left: a second retirement is a no-op.
        assert_eq!(pool.retire_idle(301.0), 0);
    }

    #[test]
    fn finalize_accrues_trailing_idle() {
        let mut pool = WarmPool::new(60_000.0);
        let (a, _) = pool.begin(0.0);
        pool.complete(a, 100.0);
        pool.finalize(1_100.0);
        assert_eq!(pool.wasted_idle_ms(), 1_000.0);
        assert_eq!(pool.live_at(1_100.0), 0);
    }

    #[test]
    fn counters_track_lifecycle() {
        let mut pool = WarmPool::with_capacity(1_000.0, 4);
        let (a, _) = pool.try_begin(0.0).unwrap();
        let (b, _) = pool.try_begin(0.0).unwrap();
        assert_eq!(pool.in_flight(), 2);
        pool.complete(a, 10.0);
        assert_eq!(pool.in_flight(), 1);
        assert_eq!(pool.warm_idle_at(20.0), 1);
        assert_eq!(pool.live_at(20.0), 2);
        pool.complete(b, 30.0);
        assert_eq!(pool.live_at(5_000.0), 0);
        assert_eq!(pool.expirations(), 2);
    }

    /// One random pool operation: (kind, time gap, which in-flight instance
    /// to complete, TTL choice, run time until that completion's release).
    type Step = (usize, f64, f64, usize, f64);

    /// Applies `step` at `now_ms`. With `always_scan`, every operation that
    /// reaps first runs the full slot scan — the reference semantics of
    /// `reap` without its skip.
    fn apply(
        pool: &mut WarmPool,
        busy: &mut Vec<InstanceId>,
        always_scan: bool,
        now_ms: f64,
        (op, _, pick, ttl_idx, run_ms): Step,
    ) -> (Option<(InstanceId, bool)>, usize) {
        let completes = matches!(op, 2 | 3) && !busy.is_empty();
        if always_scan && !completes {
            pool.reap_scan(now_ms);
        }
        match op {
            0 | 1 => {
                let started = pool.try_begin(now_ms);
                if let Some((id, _)) = started {
                    busy.push(id);
                }
                (started, 0)
            }
            2 | 3 if !busy.is_empty() => {
                let i = ((busy.len() as f64 * pick) as usize).min(busy.len() - 1);
                let id = busy.swap_remove(i);
                let ttl_ms = [0.0, 0.1, 150.0, 700.0, 2_500.0][ttl_idx];
                // A finish ahead of later arrivals, as the measurement
                // harness produces.
                pool.complete_with_ttl(id, now_ms + run_ms, ttl_ms);
                (None, 0)
            }
            4 => (None, usize::from(pool.evict_lru_idle(now_ms))),
            5 => (None, pool.retire_idle(now_ms)),
            6 => {
                let oldest = pool.oldest_idle_release_ms(now_ms);
                (None, oldest.map_or(0, |t| t.to_bits() as usize))
            }
            _ => (None, pool.warm_idle_at(now_ms)),
        }
    }

    proptest! {
        /// The O(1) fast path of `reap` is invisible: a pool that skips
        /// reaping below its expiry bound behaves exactly like one whose
        /// every reap scans all slots — same instances, same cold starts,
        /// same expirations and live counts, and wasted time equal to the
        /// bit.
        #[test]
        fn fast_reap_matches_an_always_scanning_reap(
            ops in proptest::collection::vec(
                (0usize..9, 0.0f64..400.0, 0.0f64..1.0, 0usize..5, 0.0f64..300.0),
                1..160,
            ),
            capacity in 0usize..6,
        ) {
            let mut fast = match capacity {
                0 => WarmPool::new(700.0),
                cap => WarmPool::with_capacity(700.0, cap),
            };
            let mut scan = fast.clone();
            let (mut fast_busy, mut scan_busy) = (Vec::new(), Vec::new());
            let mut now = 0.0;
            for step in ops {
                now += step.1;
                let a = apply(&mut fast, &mut fast_busy, false, now, step);
                let b = apply(&mut scan, &mut scan_busy, true, now, step);
                prop_assert_eq!(a, b);
                prop_assert_eq!(fast.live(), scan.live());
                prop_assert_eq!(fast.idle(), scan.idle());
                prop_assert_eq!(fast.expirations(), scan.expirations());
                prop_assert_eq!(fast.evictions(), scan.evictions());
                prop_assert_eq!(fast.wasted_idle_ms().to_bits(), scan.wasted_idle_ms().to_bits());
                prop_assert_eq!(fast.scan_live_idle(), (fast.live(), fast.idle()));
                // A lone reap from the same state agrees too.
                let (mut a, mut b) = (fast.clone(), fast.clone());
                a.reap(now);
                b.reap_scan(now);
                prop_assert_eq!(a.expirations(), b.expirations());
                prop_assert_eq!(a.live(), b.live());
                prop_assert_eq!(a.wasted_idle_ms().to_bits(), b.wasted_idle_ms().to_bits());
                prop_assert!(a.next_expiry_ms() <= b.next_expiry_ms());
            }
            fast.finalize(now + 1_000.0);
            scan.finalize(now + 1_000.0);
            prop_assert_eq!(fast.wasted_idle_ms().to_bits(), scan.wasted_idle_ms().to_bits());
            prop_assert_eq!(fast.expirations(), scan.expirations());
        }
    }
}
