//! The multi-tenant program registry: many named knowledge bases, one
//! resident machine room.
//!
//! The paper's KCM serves a single workstation's single program (§1). A
//! shared back end — the BinProlog deployment experience is the
//! literature precedent — instead keeps many *named* knowledge bases
//! resident and lets every connection query any of them by name. The
//! [`ProgramRegistry`] is that shape: each published program is an
//! immutable compiled [`CodeImage`] behind an `Arc`, shared by every
//! connection and every worker that queries it.
//!
//! Invariants:
//!
//! * **Published programs are immutable.** A publish compiles the full
//!   source into a fresh image; nothing ever mutates an image in place.
//!   Re-publishing a name is copy-on-write: a new [`Published`] entry
//!   (version bumped) replaces the old one in the map, while in-flight
//!   queries keep running on the `Arc` they already resolved — they
//!   finish on the program they started on.
//! * **Per-tenant stats survive re-publish.** The [`TenantStats`]
//!   counters hang off the tenant name, not the version, so a deploy
//!   doesn't zero the tenant's traffic history.
//! * **Capacity is bounded.** Publishing a *new* name into a full
//!   registry evicts the least-recently-used tenant (recency is a
//!   logical clock bumped on publish and lookup). Eviction only drops
//!   the registry's handle; in-flight queries on the evicted program
//!   still hold their `Arc` and complete normally.

use crate::program::{Edit, Program};
use crate::{KcmError, MachineConfig, ProgramSource};
use kcm_arch::SymbolTable;
use kcm_compiler::CodeImage;
use kcm_prolog::Term;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-tenant serving counters, updated lock-free by the workers that
/// execute the tenant's queries and snapshotted for `STATS`.
///
/// `steps` counts retired machine instructions — the tier-independent
/// work counter: the native tier has no clock, so `cycles` reads 0
/// there, but both tiers retire the same instruction stream.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Queries accepted onto the queue for this tenant.
    pub queries: AtomicU64,
    /// Queries answered with a completed outcome.
    pub served: AtomicU64,
    /// Queries rejected with `BUSY` (queue full).
    pub busy: AtomicU64,
    /// Queries stopped by the step budget.
    pub budget_stops: AtomicU64,
    /// Queries failed with any other error.
    pub errors: AtomicU64,
    /// Solutions across served queries.
    pub solutions: AtomicU64,
    /// Logical inferences across served queries.
    pub inferences: AtomicU64,
    /// Simulated KCM cycles across served queries (0 on the native tier).
    pub cycles: AtomicU64,
    /// Retired machine instructions across served queries.
    pub steps: AtomicU64,
    /// Work items currently executing or queued for this tenant —
    /// maintained by [`TenantStats::try_start_inflight`] /
    /// [`TenantStats::finish_inflight`], which a server uses to bound how
    /// much of its worker fleet one hot tenant can occupy.
    pub inflight: AtomicU64,
}

/// A point-in-time copy of one tenant's [`TenantStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Queries accepted onto the queue.
    pub queries: u64,
    /// Queries answered with a completed outcome.
    pub served: u64,
    /// Queries rejected with `BUSY`.
    pub busy: u64,
    /// Queries stopped by the step budget.
    pub budget_stops: u64,
    /// Queries failed with any other error.
    pub errors: u64,
    /// Solutions across served queries.
    pub solutions: u64,
    /// Logical inferences across served queries.
    pub inferences: u64,
    /// Simulated cycles across served queries.
    pub cycles: u64,
    /// Retired machine instructions across served queries.
    pub steps: u64,
}

impl TenantStats {
    /// Reads every counter (relaxed; the snapshot is advisory, not a
    /// synchronization point).
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            budget_stops: self.budget_stops.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            solutions: self.solutions.load(Ordering::Relaxed),
            inferences: self.inferences.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
        }
    }

    /// Claims one in-flight slot if fewer than `cap` are taken, lock-free
    /// (compare-and-swap; never overshoots under contention). `None` is
    /// unlimited and always claims. A `true` return **must** be balanced
    /// by exactly one [`TenantStats::finish_inflight`] once the work
    /// item completes or is rejected downstream.
    pub fn try_start_inflight(&self, cap: Option<u64>) -> bool {
        let Some(cap) = cap else {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            return true;
        };
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= cap {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Releases one in-flight slot claimed by a successful
    /// [`TenantStats::try_start_inflight`].
    pub fn finish_inflight(&self) {
        let prev = self.inflight.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "finish_inflight without a matching start");
    }
}

/// One published knowledge base: an immutable compiled program under a
/// name and version, plus the tenant's serving policy and counters.
///
/// Everything a worker needs to run a query travels in this one `Arc`:
/// resolving a tenant is a single map lookup, and holding the result
/// keeps the program alive across any concurrent re-publish or
/// eviction.
#[derive(Debug)]
pub struct Published {
    /// The tenant name this program was published under.
    pub name: String,
    /// Publish generation: 1 on first publish, +1 per re-publish.
    pub version: u64,
    /// The compiled, immutable program image.
    pub image: Arc<CodeImage>,
    /// The symbol table the image was compiled against, frozen: query
    /// compilation clones it per session, and the clone copies nothing.
    pub symbols: SymbolTable,
    /// Per-tenant step budget applied to queries that don't carry their
    /// own `BUDGET`; `None` defers to the server default.
    pub step_budget: Option<u64>,
    /// The tenant's serving counters (shared across versions).
    pub stats: Arc<TenantStats>,
    /// The clause source the image was compiled from — what an
    /// incremental update relinks a predicate from. `None` for a tenant
    /// published from a binary snapshot, whose updates are limited to the
    /// in-place fact paths.
    source: Option<Arc<Vec<Term>>>,
}

impl Published {
    /// Loads a program artifact into an entry that no registry holds yet:
    /// version 1, fresh stats. [`ProgramRegistry::publish`] builds every
    /// entry through this loader; a server also uses it directly for a
    /// connection-scoped program (`CONSULT`), which is never inserted into
    /// a registry and so can be neither evicted nor named.
    ///
    /// # Errors
    ///
    /// Parse or compile errors from source; [`KcmError::Snapshot`] for a
    /// damaged or version-skewed snapshot artifact.
    pub fn load<'a>(
        name: &str,
        source: impl Into<ProgramSource<'a>>,
        step_budget: Option<u64>,
    ) -> Result<Published, KcmError> {
        let program = Program::load(None, source.into())?;
        Ok(Published {
            name: name.to_owned(),
            version: 1,
            image: program.image,
            symbols: program.symbols,
            step_budget,
            stats: Arc::new(TenantStats::default()),
            source: program.source,
        })
    }
}

/// What a publish accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReceipt {
    /// The version now serving under the name.
    pub version: u64,
    /// The tenant evicted to make room, if the registry was full and the
    /// name was new.
    pub evicted: Option<String>,
}

struct Slot {
    entry: Arc<Published>,
    last_used: u64,
}

/// A bounded registry of named, immutable, compiled programs.
///
/// All methods take `&self`; the registry is shared as-is between the
/// server front end (publish, lookup, snapshot) and the workers (stats
/// updates through the `Arc<TenantStats>` inside each [`Published`]).
pub struct ProgramRegistry {
    capacity: usize,
    clock: AtomicU64,
    slots: Mutex<HashMap<String, Slot>>,
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramRegistry")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl ProgramRegistry {
    /// A registry holding at most `capacity` named programs (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> ProgramRegistry {
        ProgramRegistry {
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many programs are currently published.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("registry lock").len()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Loads a program artifact — Prolog source or a binary snapshot
    /// ([`ProgramSource`]) — and publishes it under `name`.
    ///
    /// Re-publishing an existing name bumps its version and keeps its
    /// stats; publishing a new name into a full registry evicts the
    /// least-recently-used tenant first (reported in the receipt).
    /// Compilation/restore happens *before* the map is touched, so a
    /// failed publish leaves the registry — including any previous
    /// version of `name` — exactly as it was.
    ///
    /// The machine configuration argument is not read: a tenant's queries
    /// run under the configuration their caller passes at query time (a
    /// server's, for instance).
    ///
    /// # Errors
    ///
    /// Parse or compile errors from source; [`KcmError::Snapshot`] for a
    /// damaged or version-skewed snapshot artifact.
    pub fn publish<'a>(
        &self,
        name: &str,
        source: impl Into<ProgramSource<'a>>,
        _config: &MachineConfig,
        step_budget: Option<u64>,
    ) -> Result<PublishReceipt, KcmError> {
        let mut entry = Published::load(name, source, step_budget)?;
        let now = self.tick();
        let mut slots = self.slots.lock().expect("registry lock");
        let evicted = match slots.get(name) {
            Some(old) => {
                entry.version = old.entry.version + 1;
                entry.stats = Arc::clone(&old.entry.stats);
                None
            }
            None if slots.len() >= self.capacity => {
                let lru = slots
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(n, _)| n.clone())
                    .expect("full registry is nonempty");
                slots.remove(&lru);
                Some(lru)
            }
            None => None,
        };
        let version = entry.version;
        slots.insert(
            name.to_owned(),
            Slot {
                entry: Arc::new(entry),
                last_used: now,
            },
        );
        Ok(PublishReceipt { version, evicted })
    }

    /// Applies one incremental update to a tenant copy-on-write: edits a
    /// copy of the entry's program handles under the registry lock
    /// (serializing concurrent updates), installs the successor version
    /// only when the edit changed the program, and leaves in-flight
    /// queries running on the version they already resolved.
    fn update(
        &self,
        name: &str,
        clause: &str,
        edit: Edit,
    ) -> Result<(PublishReceipt, bool), KcmError> {
        let now = self.tick();
        let mut slots = self.slots.lock().expect("registry lock");
        let slot = slots
            .get_mut(name)
            .ok_or_else(|| KcmError::UnknownProgram(name.to_owned()))?;
        slot.last_used = now;
        let old = &slot.entry;
        let mut program = Program {
            image: Arc::clone(&old.image),
            symbols: old.symbols.clone(),
            source: old.source.clone(),
        };
        let changed = program.edit(clause, edit)?;
        if changed {
            slot.entry = Arc::new(Published {
                name: old.name.clone(),
                version: old.version + 1,
                image: program.image,
                symbols: program.symbols,
                step_budget: old.step_budget,
                stats: Arc::clone(&old.stats),
                source: program.source,
            });
        }
        let receipt = PublishReceipt {
            version: slot.entry.version,
            evicted: None,
        };
        Ok((receipt, changed))
    }

    /// Asserts one clause at the end of its predicate in the named
    /// tenant's program ([`Kcm::assertz`] semantics: in-place fact patch
    /// with a per-predicate recompile fallback). The update is
    /// copy-on-write — a new version serves subsequent lookups while
    /// in-flight queries finish on the program they started on — and
    /// visible to the next query without a re-publish.
    ///
    /// # Errors
    ///
    /// [`KcmError::UnknownProgram`] for an unpublished name, plus every
    /// [`Kcm::assertz`] condition.
    ///
    /// [`Kcm::assertz`]: crate::Kcm::assertz
    pub fn assertz(&self, name: &str, clause: &str) -> Result<PublishReceipt, KcmError> {
        self.update(name, clause, Edit::Assert)
            .map(|(receipt, _)| receipt)
    }

    /// Retracts the first clause identical to `clause` from the named
    /// tenant's program ([`Kcm::retract`] semantics), copy-on-write.
    /// Returns the receipt plus whether a clause was removed; when
    /// nothing matched the version is unchanged.
    ///
    /// # Errors
    ///
    /// [`KcmError::UnknownProgram`] for an unpublished name, plus every
    /// [`Kcm::retract`] condition.
    ///
    /// [`Kcm::retract`]: crate::Kcm::retract
    pub fn retract(&self, name: &str, clause: &str) -> Result<(PublishReceipt, bool), KcmError> {
        self.update(name, clause, Edit::Retract)
    }

    /// Serializes the named tenant's current program into the binary
    /// snapshot format — the bytes restore through any
    /// [`ProgramSource::Snapshot`] path.
    ///
    /// # Errors
    ///
    /// [`KcmError::UnknownProgram`] for an unpublished name.
    pub fn snapshot(&self, name: &str) -> Result<Vec<u8>, KcmError> {
        let tenant = self.lookup(name)?;
        Ok(kcm_arch::snapshot::save(&tenant.image, &tenant.symbols))
    }

    /// Resolves a tenant by name, bumping its recency.
    ///
    /// # Errors
    ///
    /// [`KcmError::UnknownProgram`] when nothing is published under
    /// `name` (it may have been evicted).
    pub fn lookup(&self, name: &str) -> Result<Arc<Published>, KcmError> {
        let now = self.tick();
        let mut slots = self.slots.lock().expect("registry lock");
        match slots.get_mut(name) {
            Some(slot) => {
                slot.last_used = now;
                Ok(Arc::clone(&slot.entry))
            }
            None => Err(KcmError::UnknownProgram(name.to_owned())),
        }
    }

    /// Every published tenant, sorted by name — the deterministic order
    /// `STATS` renders in.
    pub fn tenants(&self) -> Vec<Arc<Published>> {
        let slots = self.slots.lock().expect("registry lock");
        let mut entries: Vec<Arc<Published>> =
            slots.values().map(|s| Arc::clone(&s.entry)).collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryOpts;

    fn registry(capacity: usize) -> ProgramRegistry {
        ProgramRegistry::new(capacity)
    }

    fn publish(r: &ProgramRegistry, name: &str, source: &str) -> PublishReceipt {
        r.publish(name, source, &MachineConfig::default(), None)
            .expect("publish")
    }

    #[test]
    fn publish_then_lookup_serves_the_program() {
        let r = registry(4);
        let receipt = publish(&r, "alpha", "p(1). p(2).");
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.evicted, None);
        let t = r.lookup("alpha").expect("lookup");
        assert_eq!(t.name, "alpha");
        assert_eq!(t.version, 1);
        let job = crate::QueryJob::all_solutions("p(X)");
        let outcome =
            crate::pool::run_session(&t.image, &t.symbols, &MachineConfig::default(), &job)
                .expect("run");
        assert_eq!(outcome.solutions.len(), 2);
    }

    #[test]
    fn unknown_name_is_a_classed_error() {
        let r = registry(4);
        match r.lookup("ghost") {
            Err(KcmError::UnknownProgram(name)) => assert_eq!(name, "ghost"),
            other => panic!("expected UnknownProgram, got {other:?}"),
        }
        assert_eq!(
            crate::error_class(&KcmError::UnknownProgram("x".into())),
            "unknown_program"
        );
    }

    #[test]
    fn republish_bumps_version_and_keeps_old_arcs_alive() {
        let r = registry(4);
        publish(&r, "kb", "p(old).");
        let v1 = r.lookup("kb").expect("v1");
        v1.stats.served.fetch_add(7, Ordering::Relaxed);
        let receipt = publish(&r, "kb", "p(new1). p(new2).");
        assert_eq!(receipt.version, 2);
        let v2 = r.lookup("kb").expect("v2");
        // Copy-on-write: the in-flight handle still runs the old program…
        let job = crate::QueryJob::all_solutions("p(X)");
        let cfg = MachineConfig::default();
        let old = crate::pool::run_session(&v1.image, &v1.symbols, &cfg, &job).expect("old run");
        assert_eq!(old.solutions.len(), 1);
        // …while new lookups see the new one…
        let new = crate::pool::run_session(&v2.image, &v2.symbols, &cfg, &job).expect("new run");
        assert_eq!(new.solutions.len(), 2);
        // …and the tenant's stats survived the deploy.
        assert_eq!(v2.stats.snapshot().served, 7);
    }

    #[test]
    fn failed_publish_leaves_the_registry_untouched() {
        let r = registry(4);
        publish(&r, "kb", "p(1).");
        assert!(r
            .publish("kb", "p(", &MachineConfig::default(), None)
            .is_err());
        let t = r.lookup("kb").expect("still published");
        assert_eq!(t.version, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn full_registry_evicts_the_least_recently_used_name() {
        let r = registry(2);
        publish(&r, "a", "p(1).");
        publish(&r, "b", "q(1).");
        // Touch `a` so `b` is the LRU.
        r.lookup("a").expect("a");
        let receipt = publish(&r, "c", "r(1).");
        assert_eq!(receipt.evicted.as_deref(), Some("b"));
        assert!(r.lookup("b").is_err());
        assert!(r.lookup("a").is_ok());
        assert!(r.lookup("c").is_ok());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn republish_into_a_full_registry_evicts_nothing() {
        let r = registry(2);
        publish(&r, "a", "p(1).");
        publish(&r, "b", "q(1).");
        let receipt = publish(&r, "a", "p(2).");
        assert_eq!(receipt.version, 2);
        assert_eq!(receipt.evicted, None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn tenant_step_budget_rides_on_the_entry() {
        let r = registry(2);
        r.publish(
            "tight",
            "loop :- loop.",
            &MachineConfig::default(),
            Some(10_000),
        )
        .expect("publish");
        let t = r.lookup("tight").expect("lookup");
        assert_eq!(t.step_budget, Some(10_000));
        let job = crate::QueryJob::with_opts(
            "loop",
            QueryOpts::first().with_step_budget(t.step_budget.expect("budget")),
        );
        let err = crate::pool::run_session(&t.image, &t.symbols, &MachineConfig::default(), &job)
            .expect_err("budget stop");
        assert_eq!(crate::error_class(&err), "budget");
    }

    #[test]
    fn tenants_listing_is_sorted_by_name() {
        let r = registry(8);
        for name in ["zeta", "alpha", "mid"] {
            publish(&r, name, "p(1).");
        }
        let names: Vec<String> = r.tenants().iter().map(|t| t.name.clone()).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn inflight_cap_bounds_concurrent_claims() {
        let r = registry(4);
        publish(&r, "kb", "p(1).");
        let t = r.lookup("kb").expect("lookup");

        // A cap of 2 admits exactly two claims, then refuses until one
        // finishes.
        assert!(t.stats.try_start_inflight(Some(2)));
        assert!(t.stats.try_start_inflight(Some(2)));
        assert!(!t.stats.try_start_inflight(Some(2)));
        t.stats.finish_inflight();
        assert!(t.stats.try_start_inflight(Some(2)));
        assert!(!t.stats.try_start_inflight(Some(2)));
        t.stats.finish_inflight();
        t.stats.finish_inflight();

        // No cap always admits; the counter still tracks.
        assert!(t.stats.try_start_inflight(None));
        assert_eq!(t.stats.inflight.load(Ordering::Relaxed), 1);
        t.stats.finish_inflight();
        assert_eq!(t.stats.inflight.load(Ordering::Relaxed), 0);

        // Republishing keeps the same stats block, so an in-flight claim
        // taken against the old Arc is still visible to new lookups.
        assert!(t.stats.try_start_inflight(Some(1)));
        publish(&r, "kb", "p(2).");
        let t2 = r.lookup("kb").expect("relookup");
        assert!(!t2.stats.try_start_inflight(Some(1)));
        t.stats.finish_inflight();
        assert!(t2.stats.try_start_inflight(Some(1)));
        t2.stats.finish_inflight();
    }

    #[test]
    fn inflight_cap_never_overshoots_under_contention() {
        let r = registry(2);
        publish(&r, "kb", "p(1).");
        let t = r.lookup("kb").expect("lookup");
        let peak = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..500 {
                        if t.stats.try_start_inflight(Some(3)) {
                            let now = t.stats.inflight.load(Ordering::Relaxed);
                            peak.fetch_max(now, Ordering::Relaxed);
                            t.stats.finish_inflight();
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::Relaxed) <= 3);
        assert_eq!(t.stats.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn publish_accepts_a_snapshot_artifact() {
        let mut kcm = crate::Kcm::new();
        kcm.load("p(1). p(2). p(3).").expect("load");
        let bytes = kcm.snapshot().expect("snapshot");
        let r = registry(4);
        let receipt = r
            .publish("kb", &bytes, &MachineConfig::default(), None)
            .expect("publish snapshot");
        assert_eq!(receipt.version, 1);
        let t = r.lookup("kb").expect("lookup");
        let job = crate::QueryJob::all_solutions("p(X)");
        let outcome =
            crate::pool::run_session(&t.image, &t.symbols, &MachineConfig::default(), &job)
                .expect("run");
        assert_eq!(outcome.solutions.len(), 3);
    }

    #[test]
    fn snapshot_export_round_trips_through_publish() {
        let r = registry(4);
        publish(&r, "kb", "p(1). p(2).");
        let bytes = r.snapshot("kb").expect("export");
        let receipt = r
            .publish("copy", &bytes, &MachineConfig::default(), None)
            .expect("republish bytes");
        assert_eq!(receipt.version, 1);
        let t = r.lookup("copy").expect("lookup");
        let job = crate::QueryJob::all_solutions("p(X)");
        let outcome =
            crate::pool::run_session(&t.image, &t.symbols, &MachineConfig::default(), &job)
                .expect("run");
        assert_eq!(outcome.solutions.len(), 2);
        assert!(matches!(
            r.snapshot("ghost"),
            Err(KcmError::UnknownProgram(_))
        ));
    }

    #[test]
    fn assertz_and_retract_update_the_tenant_copy_on_write() {
        let r = registry(4);
        let src: String = (0..16).map(|i| format!("f(k{i}, v{}).\n", i % 3)).collect();
        publish(&r, "kb", &src);
        let before = r.lookup("kb").expect("v1");

        let receipt = r.assertz("kb", "f(k_new, v_new)").expect("assert");
        assert_eq!(receipt.version, 2);
        let (receipt, removed) = r.retract("kb", "f(k2, v2)").expect("retract");
        assert!(removed);
        assert_eq!(receipt.version, 3);
        let (receipt, removed) = r.retract("kb", "f(k2, v2)").expect("retract again");
        assert!(!removed, "second retract finds nothing");
        assert_eq!(receipt.version, 3, "no-op retract keeps the version");

        let after = r.lookup("kb").expect("v3");
        let cfg = MachineConfig::default();
        let job = crate::QueryJob::all_solutions("f(K, V)");
        let old =
            crate::pool::run_session(&before.image, &before.symbols, &cfg, &job).expect("old run");
        let new =
            crate::pool::run_session(&after.image, &after.symbols, &cfg, &job).expect("new run");
        // In-flight handles still see the pre-update program…
        assert_eq!(old.solutions.len(), 16);
        // …new lookups see the asserted fact and miss the retracted one.
        assert_eq!(new.solutions.len(), 16);
        let job = crate::QueryJob::all_solutions("f(k_new, V)");
        let new =
            crate::pool::run_session(&after.image, &after.symbols, &cfg, &job).expect("new fact");
        assert_eq!(new.solutions.len(), 1);
        // Stats survived the updates (same block across versions).
        assert!(Arc::ptr_eq(&before.stats, &after.stats));
        assert!(matches!(
            r.assertz("ghost", "p(1)"),
            Err(KcmError::UnknownProgram(_))
        ));

        // Clauses that differ only in the sign of a zero: the tenant's
        // held source drops the clause its image dropped, so the rule's
        // assert relinks `p/1` from the right clauses.
        let rule = "p(X) :- X = 2.0";
        for (program, retracted, edited) in [
            ("p(0.0). p(-0.0). p(1.0).", "p(-0.0)", "p(0.0). p(1.0)."),
            ("p(-0.0). p(0.0). p(1.0).", "p(0.0)", "p(-0.0). p(1.0)."),
        ] {
            publish(&r, "zeros", program);
            assert!(r.retract("zeros", retracted).expect("retract").1);
            r.assertz("zeros", rule).expect("assert rule");
            publish(&r, "fresh", &format!("{edited} {rule}."));
            let job = crate::QueryJob::all_solutions("p(X)");
            // Debug renders the sign of a zero; `==` on floats would not.
            let answers = |name: &str| {
                let t = r.lookup(name).expect("lookup");
                let outcome = crate::pool::run_session(&t.image, &t.symbols, &cfg, &job);
                format!("{:?}", outcome.expect("run").solutions)
            };
            assert_eq!(answers("zeros"), answers("fresh"), "{program}");
        }
    }

    #[test]
    fn concurrent_lookups_and_republish_stay_consistent() {
        let r = std::sync::Arc::new(registry(4));
        publish(&r, "kb", "p(1).");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let t = r.lookup("kb").expect("lookup");
                        assert!(t.version >= 1);
                        t.stats.queries.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let r = std::sync::Arc::clone(&r);
            scope.spawn(move || {
                for i in 0..20 {
                    r.publish("kb", &format!("p({i})."), &MachineConfig::default(), None)
                        .expect("republish");
                }
            });
        });
        let t = r.lookup("kb").expect("final");
        assert_eq!(t.version, 21);
        assert_eq!(t.stats.snapshot().queries, 800);
    }
}
