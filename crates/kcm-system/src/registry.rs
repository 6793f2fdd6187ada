//! The multi-tenant program registry: many named knowledge bases, one
//! resident machine room.
//!
//! The paper's KCM serves a single workstation's single program (§1). A
//! shared back end — the BinProlog deployment experience is the
//! literature precedent — instead keeps many *named* knowledge bases
//! resident and lets every connection query any of them by name. The
//! [`ProgramRegistry`] is that shape: each published program is a
//! compiled [`CodeImage`] behind an `Arc`, shared by every connection
//! and every worker that queries it.
//!
//! Invariants:
//!
//! * **A version that a reader holds never changes.** A publish compiles
//!   the full source into a fresh image, and re-publishing a name
//!   installs a new [`Published`] entry (version bumped) in the map,
//!   while in-flight queries keep running on the `Arc` they already
//!   resolved — they finish on the program they started on. An
//!   incremental update (`assertz`/`retract`) edits the tenant's own
//!   entry and copies the image, the clause source or the symbol base
//!   only while a reader still holds the version; an entry no one else
//!   holds is patched in place, so a write costs what it touches rather
//!   than the size of the program. An update that panics half-way drops
//!   the tenant, so a half-edited version never serves.
//! * **Per-tenant stats survive re-publish.** The [`TenantStats`]
//!   counters hang off the tenant name, not the version, so a deploy
//!   doesn't zero the tenant's traffic history.
//! * **Capacity is bounded.** Publishing a *new* name into a full
//!   registry evicts the least-recently-used tenant (recency is a
//!   logical clock bumped on publish and lookup). Eviction only drops
//!   the registry's handle; in-flight queries on the evicted program
//!   still hold their `Arc` and complete normally.

use crate::program::{Edit, Program};
use crate::{KcmError, MachineConfig, Outcome, ProgramSource, RunStats};
use kcm_arch::SymbolTable;
use kcm_compiler::CodeImage;
use kcm_prolog::Term;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serving counters: a program's, or a server's total over every
/// program. Each request event is counted by one method, lock-free, from
/// the event loop and the workers alike; the counters are read relaxed,
/// since `STATS` is advisory, not a synchronization point.
///
/// `steps` counts retired machine instructions — the tier-independent
/// work counter: the native tier has no clock, so `cycles` reads 0
/// there, but both tiers retire the same instruction stream.
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Queries accepted: one-shot queries answered or admitted to the
    /// workers, and cursors past their in-flight claim (not a `BUSY`).
    pub queries: AtomicU64,
    /// One-shot queries answered with a completed outcome.
    pub served: AtomicU64,
    /// Requests rejected with `BUSY` (workers full, or a cap reached).
    pub busy: AtomicU64,
    /// Requests stopped by the step budget.
    pub budget_stops: AtomicU64,
    /// Requests failed with any other error, panics included.
    pub errors: AtomicU64,
    /// Requests that panicked, answered with the error class `internal`.
    pub panics: AtomicU64,
    /// One-shot queries dropped unrun: their connection closed.
    pub cancelled: AtomicU64,
    /// Solutions across served queries and cursor batches.
    pub solutions: AtomicU64,
    /// Logical inferences across served queries and cursor batches.
    pub inferences: AtomicU64,
    /// Simulated KCM cycles, likewise (0 on the native tier).
    pub cycles: AtomicU64,
    /// Retired machine instructions, likewise, plus those of the runs
    /// the step budget stopped.
    pub steps: AtomicU64,
    /// Clause-indexing switch dispatches that found their key, across
    /// served queries.
    pub switch_hits: AtomicU64,
    /// Switch dispatches that missed their table, likewise.
    pub switch_misses: AtomicU64,
    /// Switch table probes charged (the simulated linear-scan cost the
    /// hash side table avoids paying on the host), likewise.
    pub switch_probes: AtomicU64,
    /// Second-level (depth-2) switch dispatches, likewise.
    pub switch_depth2: AtomicU64,
    /// Cursors opened (`QUERY … CURSOR` that compiled and suspended).
    pub cursors_opened: AtomicU64,
    /// Cursor batches served.
    pub cursor_batches: AtomicU64,
    /// Answers streamed across all cursor batches.
    pub cursor_answers: AtomicU64,
    /// Work items currently executing or queued for this tenant —
    /// maintained by [`TenantStats::try_start_inflight`] /
    /// [`TenantStats::finish_inflight`], which a server uses to bound how
    /// much of its worker fleet one hot tenant can occupy. A gauge, not
    /// a counter: [`TenantStats::counters`] leaves it out, and a total
    /// over programs leaves it at 0.
    pub inflight: AtomicU64,
}

/// Adds `n` to a counter. Most of a request's counts are 0 (`cycles` on
/// the native tier, most switch outcomes), and skip the atomic add.
fn bump(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl TenantStats {
    /// Every counter under its `STATS` key, in the order `STATS` prints
    /// them.
    pub fn counters(&self) -> [(&'static str, &AtomicU64); 18] {
        [
            ("queries", &self.queries),
            ("served", &self.served),
            ("busy", &self.busy),
            ("budget_stops", &self.budget_stops),
            ("errors", &self.errors),
            ("panics", &self.panics),
            ("cancelled", &self.cancelled),
            ("solutions", &self.solutions),
            ("inferences", &self.inferences),
            ("cycles", &self.cycles),
            ("steps", &self.steps),
            ("switch_hits", &self.switch_hits),
            ("switch_misses", &self.switch_misses),
            ("switch_probes", &self.switch_probes),
            ("switch_depth2", &self.switch_depth2),
            ("cursors_opened", &self.cursors_opened),
            ("cursor_batches", &self.cursor_batches),
            ("cursor_answers", &self.cursor_answers),
        ]
    }

    /// Appends one `<prefix><key>=<value>` line per counter.
    pub fn render(&self, prefix: &str, out: &mut String) {
        for (key, counter) in self.counters() {
            let value = counter.load(Ordering::Relaxed);
            out.push_str(&format!("{prefix}{key}={value}\n"));
        }
    }

    /// A query accepted.
    pub fn on_query(&self) {
        bump(&self.queries, 1);
    }

    /// A request answered `BUSY`.
    pub fn on_busy(&self) {
        bump(&self.busy, 1);
    }

    /// A one-shot query answered with its outcome.
    pub fn on_served(&self, outcome: &Outcome) {
        let switches = &outcome.profile.switches;
        bump(&self.served, 1);
        bump(&self.solutions, outcome.solutions.len() as u64);
        self.on_work(&outcome.stats);
        bump(&self.switch_hits, switches.hits);
        bump(&self.switch_misses, switches.misses);
        bump(&self.switch_probes, switches.probes);
        bump(&self.switch_depth2, switches.depth2);
    }

    /// A cursor batch that streamed `answers` answers at the cost
    /// `stats`. It counts its work like a served query, but under the
    /// `cursor_*` counters instead of `served`.
    pub fn on_batch(&self, answers: u64, stats: &RunStats) {
        bump(&self.cursor_batches, 1);
        bump(&self.cursor_answers, answers);
        bump(&self.solutions, answers);
        self.on_work(stats);
    }

    /// The machine work of a served query or a cursor batch.
    fn on_work(&self, stats: &RunStats) {
        bump(&self.inferences, stats.inferences);
        bump(&self.cycles, stats.cycles);
        bump(&self.steps, stats.instructions);
    }

    /// A request failed with the error class `class` after retiring
    /// `steps` machine instructions: `budget` is a budget stop, any other
    /// class an error, and `internal` (a contained panic) a panic too.
    /// Its inferences and cycles are not counted: a failed run reports
    /// only its steps.
    pub fn on_error(&self, class: &str, steps: u64) {
        bump(&self.steps, steps);
        if class == "budget" {
            return bump(&self.budget_stops, 1);
        }
        bump(&self.errors, 1);
        bump(&self.panics, u64::from(class == "internal"));
    }

    /// A one-shot query dropped unrun: its connection closed.
    pub fn on_cancelled(&self) {
        bump(&self.cancelled, 1);
    }

    /// A cursor opened.
    pub fn on_cursor(&self) {
        bump(&self.cursors_opened, 1);
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

/// One published knowledge base: a compiled program under a name and
/// version, plus the tenant's serving policy and counters. A version
/// does not change while anyone but its registry slot holds it.
///
/// Everything a worker needs to run a query travels in this one `Arc`:
/// resolving a tenant is a single map lookup, and holding the result
/// keeps the program alive across any concurrent re-publish or
/// eviction.
#[derive(Debug, Clone)]
pub struct Published {
    /// The tenant name this program was published under.
    pub name: String,
    /// Publish generation: 1 on first publish, +1 per re-publish.
    pub version: u64,
    /// The compiled program image.
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

/// A bounded registry of named, compiled programs.
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
        self.slots().len()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The slot map, locked. A publish builds its entry before the map
    /// is touched, and an update takes its entry out of the map while it
    /// edits it, so a panic contained while the lock was held leaves the
    /// map consistent (without the tenant whose update panicked) and
    /// poisoning is ignored.
    fn slots(&self) -> MutexGuard<'_, HashMap<String, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut slots = self.slots();
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

    /// Applies one incremental update to a tenant under the registry
    /// lock (serializing concurrent updates) and bumps its version when
    /// the edit changed the program.
    ///
    /// The entry leaves the map while it is edited, and the edit works on
    /// its own handles: when no reader holds the version they are moved,
    /// not shared, so the image, clause source and symbol base are
    /// patched in place; when a reader does, the entry is cloned (O(1)
    /// handles) and the edit copies what it changes, leaving the reader
    /// on the version it resolved. A failed edit puts the entry back as
    /// it was; a panic drops it, and the tenant is gone.
    fn update(
        &self,
        name: &str,
        clause: &str,
        edit: Edit,
    ) -> Result<(PublishReceipt, bool), KcmError> {
        let now = self.tick();
        let mut slots = self.slots();
        let (name, slot) = slots
            .remove_entry(name)
            .ok_or_else(|| KcmError::UnknownProgram(name.to_owned()))?;
        let mut entry = Arc::unwrap_or_clone(slot.entry);
        let mut program = Program {
            image: entry.image,
            symbols: entry.symbols,
            source: entry.source,
        };
        let edited = program.edit(clause, edit);
        (entry.image, entry.symbols, entry.source) =
            (program.image, program.symbols, program.source);
        if let Ok(true) = edited {
            entry.version += 1;
        }
        let receipt = PublishReceipt {
            version: entry.version,
            evicted: None,
        };
        slots.insert(
            name,
            Slot {
                entry: Arc::new(entry),
                last_used: now,
            },
        );
        Ok((receipt, edited?))
    }

    /// Asserts one clause at the end of its predicate in the named
    /// tenant's program ([`Kcm::assertz`] semantics: in-place fact patch
    /// with a per-predicate recompile fallback). A new version serves
    /// subsequent lookups, visible to the next query without a
    /// re-publish, while in-flight queries finish on the program they
    /// started on: the update copies only what such a reader still
    /// holds.
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
    /// tenant's program ([`Kcm::retract`] semantics), copying only what a
    /// reader still holds.
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
        let mut slots = self.slots();
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
        let slots = self.slots();
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
        assert_eq!(v2.stats.served.load(Ordering::Relaxed), 7);
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
        assert_eq!(t.stats.queries.load(Ordering::Relaxed), 800);
    }

    /// `kv(k<i>, v<i mod 7>)` for `i` in `0..n`.
    fn kv_source(n: usize) -> String {
        (0..n).map(|i| format!("kv(k{i}, v{}).\n", i % 7)).collect()
    }

    /// The tenant's answers to `query`, all solutions, on the native tier.
    fn answers(t: &Published, query: &str) -> String {
        let job =
            crate::QueryJob::with_opts(query, QueryOpts::all().with_tier(crate::Tier::Native));
        let outcome =
            crate::pool::run_session(&t.image, &t.symbols, &MachineConfig::default(), &job);
        format!("{:?}", outcome.expect("query runs").solutions)
    }

    /// The same program published from source and from a snapshot of it.
    fn publish_both_forms(r: &ProgramRegistry, source: &str) -> [&'static str; 2] {
        publish(r, "source", source);
        let bytes = r.snapshot("source").expect("snapshot");
        r.publish("snapshot", &bytes, &MachineConfig::default(), None)
            .expect("publish snapshot");
        ["source", "snapshot"]
    }

    #[test]
    fn a_write_no_reader_sees_edits_the_version_in_place() {
        let r = registry(4);
        for name in publish_both_forms(&r, &kv_source(64)) {
            // Queries first: the version's table of shapes keeps theirs,
            // and holds nothing that makes the write copy the image.
            let t = r.lookup(name).expect("lookup");
            let image = Arc::as_ptr(&t.image);
            for _ in 0..2 {
                assert_eq!(answers(&t, "kv(k9, V)"), r#"[[("V", Atom("v2"))]]"#);
            }
            let shapes = t.image.shape_stats();
            assert_eq!((shapes.hits, shapes.shapes), (1, 1), "{name}");
            drop(t);
            let receipt = r.assertz(name, "kv(k_new, v_new)").expect("assert");
            assert_eq!(receipt.version, 2);
            let t = r.lookup(name).expect("lookup");
            assert_eq!(
                Arc::as_ptr(&t.image),
                image,
                "{name}: assert copied the image"
            );
            assert_eq!(
                t.image.shape_stats().shapes,
                0,
                "{name}: the edit kept shapes"
            );
            assert_eq!(answers(&t, "kv(k_new, V)"), r#"[[("V", Atom("v_new"))]]"#);
            drop(t);
            assert!(r.retract(name, "kv(k_new, v_new)").expect("retract").1);
            let t = r.lookup(name).expect("lookup");
            assert_eq!(t.version, 3);
            assert_eq!(
                Arc::as_ptr(&t.image),
                image,
                "{name}: retract copied the image"
            );
            assert_eq!(answers(&t, "kv(k_new, V)"), "[]");
            assert_eq!(answers(&t, "kv(k9, V)"), r#"[[("V", Atom("v2"))]]"#);
        }
    }

    #[test]
    fn a_write_a_reader_sees_copies_and_the_reader_keeps_its_version() {
        let r = registry(4);
        for name in publish_both_forms(&r, &kv_source(64)) {
            let held = r.lookup(name).expect("v1");
            let before = answers(&held, "kv(K, V)");
            r.assertz(name, "kv(k_new, v_new)").expect("assert");
            assert!(r.retract(name, "kv(k3, v3)").expect("retract").1);
            let now = r.lookup(name).expect("v3");
            assert_eq!((held.version, now.version), (1, 3));
            assert!(
                !Arc::ptr_eq(&held.image, &now.image),
                "{name}: edited a held image"
            );
            assert_eq!(
                answers(&held, "kv(K, V)"),
                before,
                "{name}: the held version moved"
            );
            assert_eq!(answers(&held, "kv(k_new, V)"), "[]");
            assert_eq!(answers(&now, "kv(k_new, V)"), r#"[[("V", Atom("v_new"))]]"#);
            assert_eq!(answers(&now, "kv(k3, V)"), "[]");
        }
    }

    #[test]
    fn a_panic_in_an_in_place_edit_drops_the_tenant() {
        let r = registry(4);
        for name in publish_both_forms(&r, &kv_source(16)) {
            crate::program::tests::arm_edit_fault();
            let edit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.assertz(name, "kv(k_new, v_new)")
            }));
            assert!(edit.is_err(), "{name}: the armed edit panics");
            assert!(
                matches!(r.lookup(name), Err(KcmError::UnknownProgram(_))),
                "{name}: a half-edited version must not serve"
            );
        }
        assert!(r.is_empty());
        // The registry still serves and edits other tenants.
        publish(&r, "other", &kv_source(16));
        r.assertz("other", "kv(k_new, v_new)").expect("assert");
        let t = r.lookup("other").expect("other serves");
        assert_eq!(answers(&t, "kv(k_new, V)"), r#"[[("V", Atom("v_new"))]]"#);
        assert_eq!(answers(&t, "kv(k5, V)"), r#"[[("V", Atom("v5"))]]"#);
    }

    /// Four readers and one writer on one 10³-fact tenant, in both of its
    /// forms. The writer alternates `assertz`/`retract` of `kv(w, v0)`,
    /// so the fact is present exactly in the even versions. Every read
    /// must answer what a fresh publish of its version's program answers,
    /// and no reader's versions may go backwards.
    #[test]
    fn concurrent_reads_answer_their_version_while_a_writer_edits() {
        const FACTS: usize = 1_000;
        const WRITES: u64 = 120;
        let source = kv_source(FACTS);
        let probes: Vec<String> = std::iter::once("kv(w, V)".to_owned())
            .chain((0..FACTS).step_by(37).map(|i| format!("kv(k{i}, V)")))
            .collect();
        // Expected answers per version parity, from fresh publishes.
        let oracle = registry(2);
        publish(&oracle, "odd", &source);
        publish(&oracle, "even", &format!("{source}kv(w, v0).\n"));
        let expected: Vec<[String; 2]> = probes
            .iter()
            .map(|q| {
                let even = answers(&oracle.lookup("even").expect("even"), q);
                let odd = answers(&oracle.lookup("odd").expect("odd"), q);
                [even, odd]
            })
            .collect();
        assert_eq!(expected[0][0], r#"[[("V", Atom("v0"))]]"#);
        assert_eq!(expected[0][1], "[]");

        let r = registry(4);
        for name in publish_both_forms(&r, &source) {
            let done = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|scope| {
                for reader in 0..4 {
                    let (r, done, probes, expected) = (&r, &done, &probes, &expected);
                    scope.spawn(move || {
                        let (mut last, mut reads) = (0, 0usize);
                        while !done.load(Ordering::Relaxed) || reads < probes.len() {
                            let t = r.lookup(name).expect("lookup");
                            assert!(t.version >= last, "{name}: version went backwards");
                            last = t.version;
                            let at = (reader + reads * 5) % probes.len();
                            let parity = (t.version % 2) as usize;
                            assert_eq!(
                                answers(&t, &probes[at]),
                                expected[at][parity],
                                "{name} v{}: {}",
                                t.version,
                                probes[at]
                            );
                            reads += 1;
                        }
                    });
                }
                for _ in 0..WRITES / 2 {
                    r.assertz(name, "kv(w, v0)").expect("assert");
                    assert!(r.retract(name, "kv(w, v0)").expect("retract").1);
                }
                done.store(true, Ordering::Relaxed);
            });
            assert_eq!(r.lookup(name).expect("lookup").version, 1 + WRITES);
        }
    }
}
