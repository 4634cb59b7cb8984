//! Regenerates Figure 1: swapped accesses vs reorder window size.

use nfstrace_bench::{scale, scenarios, tables};
use nfstrace_core::index::TraceIndex;

fn main() {
    let s = scale();
    // Only Wednesday morning is analyzed; four days suffice.
    let campus = TraceIndex::new(scenarios::campus(4, s, scenarios::CAMPUS_SEED));
    let eecs = TraceIndex::new(scenarios::eecs(4, s, scenarios::EECS_SEED));
    print!("{}", tables::fig1(&campus, &eecs).text);
}
