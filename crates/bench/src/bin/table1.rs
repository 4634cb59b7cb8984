//! Regenerates Table 1: characteristics of CAMPUS and EECS.

use nfstrace_bench::{scale, scenarios, tables};
use nfstrace_core::index::TraceIndex;

fn main() {
    let s = scale();
    let campus = TraceIndex::new(scenarios::campus(2, s, scenarios::CAMPUS_SEED));
    let eecs = TraceIndex::new(scenarios::eecs(2, s, scenarios::EECS_SEED));
    print!("{}", tables::table1(&campus, &eecs).text);
}
