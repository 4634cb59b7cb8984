//! The plumbing `repro`, `live` and `serve` share: one flag parser,
//! the telemetry exporter, the `repro --store` batch oracle, and the
//! closing byte-identity step.
//!
//! Each of those binaries runs the paper's pipeline — generate, trace,
//! analyze — through a different tracing path, and the product is
//! always the same suite text. `live` and `serve` prove it in-process:
//! they build the batch oracle ([`Run::batch_oracle`]), run their own
//! path, and hand the result to [`Run::finish`], which asserts it equals
//! the suite over the oracle byte for byte before printing it.

use crate::suite::suite_text;
use crate::{scale, scenarios};
use nfstrace_store::{StoreConfig, StoreIndex};
use nfstrace_telemetry::{Exporter, ExporterConfig, Registry, Snapshot};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A binary built on this module; each takes its own set of flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bin {
    /// The in-memory suite, or `--store <dir>` out-of-core.
    Repro,
    /// The live-ingest daemons.
    Live,
    /// The loopback serve, replay and capture loop.
    Serve,
}

impl Bin {
    fn name(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    fn usage(self) -> &'static str {
        match self {
            Bin::Repro => "usage: repro [--store <dir>]",
            Bin::Live => {
                "usage: live [--dir <dir>] [--shards <n>] [--compact <fan_in>] \
                 [--retain <bytes>] [--metrics <path>] [--metrics-interval <secs>]"
            }
            Bin::Serve => {
                "usage: serve [--dir <dir>] [--connections <n>] [--metrics <path>] \
                 [--metrics-interval <secs>]"
            }
        }
    }

    /// Whether `flag` is one of this binary's: its usage line is the
    /// flag list.
    fn takes(self, flag: &str) -> bool {
        self.usage().contains(&format!("[{flag} "))
    }
}

/// Parsed command-line settings. A flag the binary does not take keeps
/// its default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// `repro --store <dir>`: run the suite out-of-core under `dir`.
    pub store: Option<PathBuf>,
    /// `--dir <dir>`: the work directory, kept after the run. Without
    /// it a per-process temp dir is used and removed on success.
    pub dir: Option<PathBuf>,
    /// `live --shards <n>` (n ≥ 1): the sharded multi-writer daemon.
    pub shards: Option<usize>,
    /// `live --compact <fan_in>` (fan_in ≥ 2): in-line compaction.
    pub compact: Option<usize>,
    /// `live --retain <bytes>`: the size-budget retention pass.
    pub retain: Option<u64>,
    /// `serve --connections <n>` (n ≥ 1, default 2) per system.
    pub connections: usize,
    /// `--metrics <path>`: export telemetry as JSON lines to `path`
    /// and Prometheus text to `path.prom`.
    pub metrics: Option<PathBuf>,
    /// `--metrics-interval <secs>` (default 10, at least 1).
    pub metrics_interval: Duration,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            store: None,
            dir: None,
            shards: None,
            compact: None,
            retain: None,
            connections: 2,
            metrics: None,
            metrics_interval: Duration::from_secs(10),
        }
    }
}

/// Parses `bin`'s flags (the arguments after the program name).
///
/// # Errors
///
/// The usage error to print — the reason, then the usage line — for an
/// unknown flag, a flag `bin` does not take, a missing or unparseable
/// value, a value out of range, or `--retain` together with `--shards`.
pub(crate) fn parse<I: IntoIterator<Item = String>>(bin: Bin, args: I) -> Result<Args, String> {
    let error = |reason: String| format!("{reason}\n{}", bin.usage());
    let mut parsed = Args::default();
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !bin.takes(&flag) {
            return Err(error(format!("unknown argument {flag:?}")));
        }
        let value = args
            .next()
            .ok_or_else(|| error(format!("{flag} needs a value")))?;
        let number = |min: u64| {
            value
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= min)
                .ok_or_else(|| error(format!("{flag} takes an integer ≥ {min}, not {value:?}")))
        };
        let count = |min: u64| {
            number(min).and_then(|n| usize::try_from(n).map_err(|e| error(format!("{flag}: {e}"))))
        };
        match flag.as_str() {
            "--store" => parsed.store = Some(value.into()),
            "--dir" => parsed.dir = Some(value.into()),
            "--shards" => parsed.shards = Some(count(1)?),
            "--compact" => parsed.compact = Some(count(2)?),
            "--retain" => parsed.retain = Some(number(0)?),
            "--connections" => parsed.connections = count(1)?,
            "--metrics" => parsed.metrics = Some(value.into()),
            "--metrics-interval" => {
                parsed.metrics_interval = Duration::from_secs(number(0)?.max(1));
            }
            _ => unreachable!("{flag} is in {}'s flag list", bin.name()),
        }
    }
    if parsed.retain.is_some() && parsed.shards.is_some() {
        return Err(error(
            "--retain applies to the single-writer segment catalogs only".into(),
        ));
    }
    Ok(parsed)
}

/// Parses this process's arguments for `bin`; on a usage error prints
/// it and exits with status 2.
pub fn args(bin: Bin) -> Args {
    parse(bin, std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Unwraps a pipeline step's result, or reports which step failed and
/// exits with status 1.
pub trait OrExit<T> {
    /// The value, or `"{step}: {error}"` on stderr and exit status 1.
    fn or_exit(self, step: &str) -> T;
}

impl<T, E: fmt::Display> OrExit<T> for Result<T, E> {
    fn or_exit(self, step: &str) -> T {
        self.unwrap_or_else(|e| {
            eprintln!("{step}: {e}");
            std::process::exit(1);
        })
    }
}

/// The suite's eight-day traces generated straight into store files
/// under `dir`: the `repro --store` path, and the batch oracle that
/// `live` and `serve` must reproduce. Exits with status 1 if the store
/// pipeline fails.
pub fn store_pair(scale: f64, dir: &Path) -> (StoreIndex, StoreIndex) {
    scenarios::eight_day_store_pair(scale, dir, StoreConfig::default())
        .or_exit("store pipeline failed")
}

/// Starts exporting `registry` as JSON lines to `path` and Prometheus
/// text to `path.prom`, every `interval`.
///
/// # Errors
///
/// If the JSON-lines file cannot be created.
pub fn start_exporter(
    registry: &Registry,
    path: &Path,
    interval: Duration,
) -> std::io::Result<Exporter> {
    let mut prom = path.as_os_str().to_owned();
    prom.push(".prom");
    Exporter::spawn(
        registry.clone(),
        ExporterConfig {
            interval,
            jsonl_path: Some(path.to_path_buf()),
            prometheus_path: Some(prom.into()),
            stderr: false,
        },
    )
}

/// The exit-time pipeline-health dump (stderr only): every counter and
/// gauge, plus count/mean for every histogram with samples.
fn dump_metrics(snapshot: &Snapshot) {
    eprintln!("pipeline metrics:");
    for (name, v) in &snapshot.counters {
        eprintln!("  {name} = {v}");
    }
    for (name, v) in &snapshot.gauges {
        eprintln!("  {name} = {v:.6}");
    }
    for (name, h) in &snapshot.histograms {
        if h.count > 0 {
            eprintln!("  {name}: count={} mean={:.1}us", h.count, h.mean());
        }
    }
}

/// One `live` or `serve` run: its flags, work directory, and the
/// telemetry registry every stage of it reports into.
pub struct Run {
    /// The parsed command line.
    pub args: Args,
    /// `NFSTRACE_SCALE`.
    pub scale: f64,
    /// Where the batch oracle and the run's own stores land.
    pub dir: PathBuf,
    /// Shared by every stage; exported when `--metrics` is set.
    pub registry: Registry,
    bin: Bin,
    exporter: Option<Exporter>,
}

impl Run {
    /// Parses `bin`'s flags (exit 2 on a usage error), resolves the
    /// work directory, and starts the `--metrics` exporter (exit 1 if
    /// it cannot).
    pub fn start(bin: Bin) -> Run {
        let args = args(bin);
        let dir = args.dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "nfstrace-{}-bin-{}",
                bin.name(),
                std::process::id()
            ))
        });
        let registry = Registry::new();
        let exporter = args.metrics.as_ref().map(|path| {
            start_exporter(&registry, path, args.metrics_interval).or_exit(&format!(
                "cannot start metrics exporter at {}",
                path.display()
            ))
        });
        Run {
            scale: scale(),
            dir,
            registry,
            bin,
            exporter,
            args,
        }
    }

    /// The batch oracle: [`store_pair`] under `<dir>/batch`.
    pub fn batch_oracle(&self) -> (StoreIndex, StoreIndex) {
        eprintln!(
            "generating the batch-path store pair at scale {} ...",
            self.scale
        );
        store_pair(self.scale, &self.dir.join("batch"))
    }

    /// The closing step: asserts `text` is the suite over `oracle` byte
    /// for byte, stops the exporter and dumps its last snapshot to
    /// stderr, prints `text` to stdout, and removes a temp work dir.
    pub fn finish(self, text: &str, oracle: &(StoreIndex, StoreIndex)) {
        eprintln!("running the suite over the batch stores ...");
        assert_eq!(
            text,
            suite_text(&oracle.0, &oracle.1),
            "{} must reproduce the batch suite byte for byte",
            self.bin.name()
        );
        if let Some(exporter) = self.exporter {
            dump_metrics(&exporter.stop().or_exit("metrics exporter failed"));
        }
        print!("{text}");
        if self.args.dir.is_none() {
            std::fs::remove_dir_all(&self.dir).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(bin: Bin, line: &str) -> Result<Args, String> {
        parse(bin, line.split_whitespace().map(String::from))
    }

    fn ok(bin: Bin, line: &str) -> Args {
        run(bin, line).unwrap_or_else(|e| panic!("{line:?}: {e}"))
    }

    /// Every command line in the CI workflow and the README, with the
    /// settings it must parse to (each edit applied to the defaults).
    #[test]
    fn ci_and_readme_command_lines_parse() {
        type Edit = fn(&mut Args);
        let cases: [(Bin, &str, Edit); 14] = [
            (Bin::Repro, "", |_| {}),
            (Bin::Repro, "--store repro-store-dir", |a| {
                a.store = Some("repro-store-dir".into())
            }),
            (Bin::Repro, "--store live-smoke-batch", |a| {
                a.store = Some("live-smoke-batch".into())
            }),
            (Bin::Repro, "--store /tmp/nfstore", |a| {
                a.store = Some("/tmp/nfstore".into())
            }),
            (Bin::Live, "--dir live-smoke-run", |a| {
                a.dir = Some("live-smoke-run".into())
            }),
            (Bin::Live, "--dir /tmp/nfslive", |a| {
                a.dir = Some("/tmp/nfslive".into())
            }),
            (Bin::Live, "--shards 1 --dir live-smoke-sharded-1", |a| {
                (a.shards, a.dir) = (Some(1), Some("live-smoke-sharded-1".into()))
            }),
            (Bin::Live, "--shards 2 --dir live-smoke-sharded-2", |a| {
                (a.shards, a.dir) = (Some(2), Some("live-smoke-sharded-2".into()))
            }),
            (Bin::Live, "--shards 4 --dir live-smoke-sharded-4", |a| {
                (a.shards, a.dir) = (Some(4), Some("live-smoke-sharded-4".into()))
            }),
            (Bin::Live, "--shards 4 --dir /tmp/nfslive", |a| {
                (a.shards, a.dir) = (Some(4), Some("/tmp/nfslive".into()))
            }),
            (
                Bin::Live,
                "--dir compaction-smoke-run --compact 3 --retain 1000000",
                |a| {
                    a.dir = Some("compaction-smoke-run".into());
                    (a.compact, a.retain) = (Some(3), Some(1_000_000));
                },
            ),
            (
                Bin::Live,
                "--dir metrics-smoke-run --metrics metrics-smoke.jsonl --metrics-interval 1",
                |a| {
                    a.dir = Some("metrics-smoke-run".into());
                    a.metrics = Some("metrics-smoke.jsonl".into());
                    a.metrics_interval = Duration::from_secs(1);
                },
            ),
            (
                Bin::Live,
                "--metrics /tmp/nfstrace-metrics.jsonl --metrics-interval 5",
                |a| {
                    a.metrics = Some("/tmp/nfstrace-metrics.jsonl".into());
                    a.metrics_interval = Duration::from_secs(5);
                },
            ),
            (
                Bin::Serve,
                "--connections 2 --metrics serve-smoke.jsonl --metrics-interval 1",
                |a| {
                    a.connections = 2;
                    a.metrics = Some("serve-smoke.jsonl".into());
                    a.metrics_interval = Duration::from_secs(1);
                },
            ),
        ];
        for (bin, line, edit) in cases {
            let mut expected = Args::default();
            edit(&mut expected);
            assert_eq!(ok(bin, line), expected, "{line:?}");
        }
    }

    #[test]
    fn defaults_and_clamps() {
        let d = Args::default();
        assert_eq!(d.connections, 2);
        assert_eq!(d.metrics_interval, Duration::from_secs(10));
        assert_eq!(
            ok(Bin::Serve, "--metrics-interval 0").metrics_interval,
            Duration::from_secs(1)
        );
        assert_eq!(ok(Bin::Live, "--dir a --dir b").dir, Some("b".into()));
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for (bin, line) in [
            (Bin::Repro, "--bogus"),
            (Bin::Live, "--bogus x"),
            (Bin::Serve, "--bogus"),
            (Bin::Repro, "--store"),
            (Bin::Live, "--dir"),
            (Bin::Live, "--shards"),
            (Bin::Live, "--metrics x --metrics-interval"),
            (Bin::Serve, "--connections"),
            (Bin::Live, "--shards 0"),
            (Bin::Live, "--shards x"),
            (Bin::Live, "--compact 1"),
            (Bin::Live, "--retain -1"),
            (Bin::Live, "--retain 1000 --shards 2"),
            (Bin::Live, "--shards 2 --retain 1000"),
            (Bin::Serve, "--connections 0"),
            (Bin::Serve, "--shards 2"),
            (Bin::Serve, "--compact 3"),
            (Bin::Repro, "--dir x"),
            (Bin::Live, "--store x"),
        ] {
            let err = run(bin, line).expect_err(line);
            assert!(
                err.ends_with(bin.usage()),
                "{line:?}: the error ends with the usage line"
            );
        }
    }
}
