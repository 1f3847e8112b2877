//! The three workloads. Each drives the public API from one process in a
//! closed loop with one client: the next op starts when the previous one
//! has returned and been checked.

pub mod churn_restart;
pub mod dense_roster;
pub mod ooc_csr;

use crate::harness::{Outcome, RunConfig};

/// A workload's name, the reason it exists, and its entry point.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunConfig) -> Result<Outcome, String>,
}

pub const ALL: [Workload; 3] = [
    Workload {
        name: dense_roster::NAME,
        why: dense_roster::WHY,
        run: dense_roster::run,
    },
    Workload {
        name: ooc_csr::NAME,
        why: ooc_csr::WHY,
        run: ooc_csr::run,
    },
    Workload {
        name: churn_restart::NAME,
        why: churn_restart::WHY,
        run: churn_restart::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
