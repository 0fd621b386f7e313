//! `report` — regenerate one artifact of the evaluation:
//! `cargo run --release -p ff-bench --bin report -- <entry> [flags]`.
//! See the `ff_bench` crate docs for the entries.

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dir = Path::new("target").join("experiments");
    ExitCode::from(ff_bench::report(&args, &dir))
}
