//! Shared toggle-coverage plumbing for the gate-level engines.
//!
//! Both engines track the same item list — one single-bit item per cell
//! output, named after the output net, in instance order — and sample
//! settled four-valued values at the end of every tick. Because the
//! engines agree on per-cycle settled values (the differential suites
//! pin this), the resulting maps are byte-identical across the
//! event-driven and bit-parallel engines.

use crate::netlist::GateNetlist;
use scflow_hwtypes::Logic;
use scflow_obs::ToggleCoverage;

/// A collector over every cell output of `nl`, in instance order.
pub(crate) fn instance_coverage(nl: &GateNetlist) -> ToggleCoverage {
    ToggleCoverage::new(
        nl.instances()
            .iter()
            .map(|i| (nl.net_names_dbg(i.output).to_owned(), 1)),
    )
}

/// A four-valued sample as `(value, known)` single-bit planes: only
/// driven 0/1 count as known; X and Z are unknown.
pub(crate) fn logic_sample(v: Logic) -> (u64, u64) {
    match v {
        Logic::Zero => (0, 1),
        Logic::One => (1, 1),
        Logic::X | Logic::Z => (0, 0),
    }
}
