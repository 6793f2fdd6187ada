//! The recycled-memory invariant: a query run on memory that earlier
//! queries on the same thread used and retired observes exactly what it
//! observes on new memory — a cycle-tier query on a recycled board, and
//! a native-tier query on a recycled zone store, which is zeroed only
//! where the new run grows into it.
//!
//! One thread runs the 14 suite queries and the corpus cases in a seeded
//! random order, interleaved with runs that leave memory in unusual
//! states: non-default memory configurations, a run cut off by its step
//! budget, runs ending in type faults and sessions dropped after their
//! first answer; every job runs once on each tier. Every run's full
//! observable result — solutions, output, all `RunStats` counters
//! including `MemStats`, the `Profile` and the error, if any — must
//! equal that of the same run on a freshly spawned thread, whose pools
//! are empty.

use kcm_difftest::corpus::CORPUS;
use kcm_difftest::oracle::STEP_BUDGET;
use kcm_suite::programs;
use kcm_system::{Kcm, MachineConfig, QueryOpts, Tier};
use kcm_testkit::TestRng;

#[derive(Debug, Clone)]
struct Job {
    label: String,
    source: &'static str,
    query: &'static str,
    enumerate: bool,
    config: MachineConfig,
    tier: Tier,
    step_budget: u64,
    /// Run as a `Kcm::solutions` session and drop it after one answer.
    first_answer_only: bool,
}

impl Job {
    fn new(label: &str, source: &'static str, query: &'static str, enumerate: bool) -> Job {
        Job {
            label: label.to_owned(),
            source,
            query,
            enumerate,
            config: MachineConfig::default(),
            tier: Tier::Cycle,
            step_budget: STEP_BUDGET,
            first_answer_only: false,
        }
    }

    fn variant(&self, name: &str, edit: impl FnOnce(&mut Job)) -> Job {
        let mut job = self.clone();
        job.label = format!("{} [{name}]", self.label);
        edit(&mut job);
        job
    }

    /// Everything the run observes, rendered in full.
    fn run(&self) -> String {
        let mut kcm = Kcm::with_config(self.config.clone());
        kcm.load(self.source)
            .unwrap_or_else(|e| panic!("{}: consult: {e}", self.label));
        let opts = QueryOpts {
            enumerate_all: self.enumerate,
            ..QueryOpts::default()
        }
        .with_step_budget(self.step_budget)
        .with_tier(self.tier);
        if self.first_answer_only {
            let mut session = kcm
                .solutions(self.query, &opts)
                .unwrap_or_else(|e| panic!("{}: session: {e}", self.label));
            format!("{:?}", session.next_step())
        } else {
            format!("{:?}", kcm.query(self.query, &opts))
        }
    }
}

fn jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = programs::suite()
        .into_iter()
        .map(|p| Job::new(p.name, p.source, p.query, p.enumerate))
        .collect();
    jobs.extend(
        CORPUS
            .iter()
            .map(|c| Job::new(c.name, c.source, c.query, c.enumerate)),
    );
    let suite = jobs[..programs::suite().len()].to_vec();
    for (i, p) in suite.iter().enumerate() {
        jobs.push(if i % 2 == 0 {
            p.variant("unsectioned", |j| {
                j.config.mem.sectioned_data_cache = false;
            })
        } else {
            p.variant("profiled", |j| j.config.profile = true)
        });
        jobs.push(p.variant("budget", |j| j.step_budget = 300));
        jobs.push(p.variant("first answer", |j| j.first_answer_only = true));
    }
    jobs.push(Job::new(
        "type fault",
        "f(X) :- Y is X + 1, write(Y).\n",
        "f(foo)",
        false,
    ));
    jobs.push(
        Job::new(
            "session over backtracking",
            "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n",
            "app(X, Y, [1,2,3,4])",
            true,
        )
        .variant("first answer", |j| j.first_answer_only = true),
    );
    let native: Vec<Job> = jobs
        .iter()
        .map(|j| j.variant("native", |j| j.tier = Tier::Native))
        .collect();
    jobs.extend(native);
    jobs
}

#[test]
fn recycled_boards_are_indistinguishable_from_new_ones() {
    let mut jobs = jobs();
    TestRng::new(0x6b63_6d62).shuffle(&mut jobs);
    // All on this thread, so every run after the first takes a board a
    // previous run retired.
    let recycled: Vec<String> = jobs.iter().map(Job::run).collect();
    let budget_stops = recycled
        .iter()
        .filter(|r| r.contains("BudgetExhausted"))
        .count();
    assert!(budget_stops > 0, "the budget variants must cut runs off");
    assert!(recycled.iter().any(|r| r.contains("TypeFault")));
    for (job, recycled) in jobs.into_iter().zip(recycled) {
        let label = job.label.clone();
        let fresh = std::thread::spawn(move || job.run())
            .join()
            .expect("fresh run");
        assert_eq!(recycled, fresh, "{label}: recycled memory changed the run");
    }
}
