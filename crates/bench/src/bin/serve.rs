//! `serve` — trains the tiny demo pipeline and serves it over the
//! taxo-serve line protocol.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--seed 42]
//!       [--batch-max N] [--queue-cap N]
//!       [--max-candidates N] [--tier f32|int8]
//!       [--reactor-threads N] [--idle-timeout-ms N]
//!       [--score-cache N] [--resp-cache N] [--metrics-json PATH]
//!       [--data-dir PATH] [--fsync always|batch|batch:<OPS>:<MS>]
//!       [--snapshot-every N] [--recover]
//!       [--retrain-every N] [--shadow-sample N] [--promote-gate P[:LAT_US]]
//! ```
//!
//! Prints `taxo-serve listening on <addr>` once ready, then serves until
//! a `shutdown` request arrives. `--metrics-json PATH` writes the final
//! taxo-obs snapshot (request counters, queue gauges, batch-size
//! histograms, per-kind latency spans) after shutdown. `TAXO_THREADS`
//! sets the compute thread count.
//!
//! Client connections are multiplexed over `--reactor-threads` epoll
//! reactors (Linux only; default 2), each connection dealt to one of them
//! round-robin; `--idle-timeout-ms` closes connections silent for that
//! long.
//!
//! f32 `score` requests are spliced on the reactor thread from the
//! snapshot's response index: each served query's candidates are scored
//! into a table, ranked and rendered once per snapshot, at start-up and
//! at each ingest. `--batch-max`, `--queue-cap`, `--score-cache` and
//! `--resp-cache` size the micro-batched scorer queue, its score cache
//! and the rendered-response cache, which serve the int8 tier only.
//!
//! `--data-dir` turns on durability: every ingest batch is appended to a
//! CRC32-framed WAL and fsynced before it is acknowledged (`--fsync`
//! picks the group-commit policy); the expander state is checkpointed
//! into one `state.json` whenever a commit group carries the version
//! across a multiple of `--snapshot-every`. After a crash, `--recover`
//! (with the same `--data-dir` and `--seed`) loads that state, replays
//! the WAL after it — truncating any torn final record — and resumes
//! serving the exact pre-crash state.
//!
//! `--retrain-every N` (0 = off, the default) starts the taxo-train
//! control plane: a background trainer that, every N acknowledged ingest
//! versions, exports the live expander state, fine-tunes a clone of the
//! detector on it, shadow-scores a deterministic 1-in-`--shadow-sample`
//! mirror of live score traffic against the candidate, and promotes it
//! through the serving hot-swap only when the synthetic judge panel's
//! precision (and optional latency bound) clears `--promote-gate`
//! (`P` or `P:LAT_US`, default `0.7`). A rejected candidate is a recorded
//! rollback; the live snapshot keeps answering untouched. Decisions are
//! summarized on shutdown and visible in `--metrics-json` as
//! `train.epochs` / `train.promotions` / `train.rollbacks`.

use std::sync::Arc;
use std::time::Duration;
use taxo_bench::{serving_expansion_config, serving_pipeline};
use taxo_expand::DetectorConfig;
use taxo_serve::{DurabilityConfig, FsyncPolicy, ServeConfig, Server};
use taxo_synth::Panel;
use taxo_train::{ControlPlane, GateConfig, LatencyProbe, PanelOracle, TrainConfig, Trainer};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = String::from("127.0.0.1:7878");
    let mut seed = 42u64;
    let mut cfg = ServeConfig::default();
    let mut metrics_json: Option<std::path::PathBuf> = None;
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = FsyncPolicy::default();
    let mut snapshot_every = 8u64;
    let mut recover = false;
    let mut retrain_every = 0u64;
    let mut shadow_sample = 2u64;
    let mut gate = GateConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = take(&args, &mut i, "--addr"),
            "--seed" => seed = parse(&take(&args, &mut i, "--seed")),
            "--batch-max" => cfg.batch_max = parse(&take(&args, &mut i, "--batch-max")),
            "--queue-cap" => cfg.score_queue_cap = parse(&take(&args, &mut i, "--queue-cap")),
            "--max-candidates" => {
                cfg.max_candidates = parse(&take(&args, &mut i, "--max-candidates"));
            }
            "--tier" => cfg.default_tier = parse(&take(&args, &mut i, "--tier")),
            "--reactor-threads" => {
                cfg.reactor_threads = parse(&take(&args, &mut i, "--reactor-threads"));
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    Duration::from_millis(parse(&take(&args, &mut i, "--idle-timeout-ms")));
            }
            "--score-cache" => cfg.score_cache_cap = parse(&take(&args, &mut i, "--score-cache")),
            "--resp-cache" => cfg.resp_cache_cap = parse(&take(&args, &mut i, "--resp-cache")),
            "--metrics-json" => {
                metrics_json = Some(std::path::PathBuf::from(take(
                    &args,
                    &mut i,
                    "--metrics-json",
                )));
            }
            "--data-dir" => {
                data_dir = Some(std::path::PathBuf::from(take(&args, &mut i, "--data-dir")));
            }
            "--fsync" => fsync = parse_fsync(&take(&args, &mut i, "--fsync")),
            "--snapshot-every" => snapshot_every = parse(&take(&args, &mut i, "--snapshot-every")),
            "--recover" => recover = true,
            "--retrain-every" => retrain_every = parse(&take(&args, &mut i, "--retrain-every")),
            "--shadow-sample" => shadow_sample = parse(&take(&args, &mut i, "--shadow-sample")),
            "--promote-gate" => {
                gate = GateConfig::parse(&take(&args, &mut i, "--promote-gate"))
                    .unwrap_or_else(|e| die(&format!("--promote-gate: {e}")));
            }
            "--help" | "-h" => {
                let d = ServeConfig::default();
                println!(
                    "serve [--addr HOST:PORT] [--seed N] \
                     [--batch-max N] [--queue-cap N] [--max-candidates N] [--tier f32|int8] \
                     [--reactor-threads N] [--idle-timeout-ms N] \
                     [--score-cache N] [--resp-cache N] [--metrics-json PATH] \
                     [--data-dir PATH] \
                     [--fsync always|batch|batch:<OPS>:<MS>] [--snapshot-every N] [--recover] \
                     [--retrain-every N] [--shadow-sample N] [--promote-gate P[:LAT_US]]\n\n\
                     f32 responses are ranked and rendered once per snapshot, at start-up and\n\
                     at each ingest, and spliced on the reactor thread. These flags apply\n\
                     to the int8 tier only:\n  \
                     --batch-max N    int8 score jobs coalesced into one scoring pass ({})\n  \
                     --queue-cap N    int8 score queue capacity; beyond it, busy ({})\n  \
                     --score-cache N  int8 served-score LRU capacity in entries ({})\n  \
                     --resp-cache N   int8 rendered-response LRU capacity in entries ({})\n\n\
                     TAXO_THREADS sets the compute thread count.",
                    d.batch_max, d.score_queue_cap, d.score_cache_cap, d.resp_cache_cap
                );
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if recover && data_dir.is_none() {
        die("--recover requires --data-dir");
    }

    eprintln!("# training tiny serving pipeline (seed {seed})…");
    let t0 = std::time::Instant::now();
    let (world, trained) = serving_pipeline(seed);
    let expansion_cfg = serving_expansion_config();
    let expander = trained.into_expander(&world.existing, expansion_cfg.clone());
    eprintln!("# trained in {:.1?}", t0.elapsed());
    // Clone the vocabulary out so the `World` stays whole: the trainer's
    // judge panel needs its ground truth as the promotion oracle.
    let vocab = Arc::new(world.vocab.clone());

    // `--recover` swaps the freshly trained expander for the durable
    // state the previous run reached; the frozen detector and expansion
    // config come from the (deterministic) training above.
    let (expander, report) = if recover {
        let dir = data_dir.as_deref().expect("checked above");
        let detector = expander.detector().clone();
        match Server::recover(dir, detector, expansion_cfg, &vocab) {
            Ok((expander, report)) => {
                eprintln!(
                    "# recovered {}: snapshot v{}, {} ops / {} records replayed, \
                     {} torn bytes truncated, resuming at v{}",
                    dir.display(),
                    report.snapshot_version,
                    report.replayed_ops,
                    report.replayed_records,
                    report.truncated_bytes,
                    report.final_version
                );
                (expander, Some(report))
            }
            Err(e) => die(&format!("recovering {}: {e}", dir.display())),
        }
    } else {
        (expander, None)
    };

    let mut builder = Server::builder(expander, vocab).config(cfg);
    if let Some(dir) = data_dir {
        builder = builder.durability(DurabilityConfig::Wal {
            dir,
            fsync,
            snapshot_every,
        });
    }
    if let Some(report) = &report {
        builder = builder.recovered(report);
    }
    let handle = builder
        .bind(addr.as_str())
        .unwrap_or_else(|e| die(&format!("binding {addr}: {e}")));
    println!("taxo-serve listening on {}", handle.addr());

    // `--retrain-every` arms the continuous-learning control plane: a
    // background trainer that retrains on accumulated ingest, shadow-
    // scores mirrored traffic, and promotes through the serving
    // hot-swap only when the judge panel clears the gate.
    let trainer = (retrain_every > 0).then(|| {
        let train_cfg = TrainConfig {
            retrain_every,
            shadow_sample,
            gate,
            seed,
            // A short fine-tune per epoch: the candidate starts from the
            // live detector's weights, so a few passes suffice and keep
            // the control loop responsive.
            detector: DetectorConfig {
                epochs: 6,
                ..DetectorConfig::tiny(seed)
            },
            ..TrainConfig::default()
        };
        eprintln!(
            "# trainer armed: retrain every {retrain_every} version(s), \
             shadow 1-in-{shadow_sample}, gate precision {:.2}",
            gate.min_precision
        );
        let oracle = PanelOracle::new(Panel::new(3, 0.0, seed), move |parent, child| {
            world.is_true_hypernym(parent, child)
        });
        Trainer::spawn(
            handle.controller(),
            ControlPlane::new(train_cfg),
            Box::new(oracle),
            LatencyProbe::Wall,
        )
    });

    handle.join();
    eprintln!("# shut down cleanly");
    if let Some(trainer) = trainer {
        let plane = trainer.stop();
        let promoted = plane
            .decisions()
            .iter()
            .filter(|d| matches!(d.verdict, taxo_train::Verdict::Promoted { .. }))
            .count();
        eprintln!(
            "# trainer: {} epoch(s), {} promotion(s), {} rollback(s)",
            plane.epoch(),
            promoted,
            plane.decisions().len() - promoted
        );
    }

    if let Some(path) = &metrics_json {
        match taxo_obs::report::write_json_lines(path) {
            Ok(()) => eprintln!("# metrics written to {}", path.display()),
            Err(e) => die(&format!("writing {}: {e}", path.display())),
        }
    }
    taxo_obs::report::report_if_configured();
}

fn take(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i)
        .unwrap_or_else(|| die(&format!("{flag} takes a value")))
        .clone()
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("invalid numeric value {s:?}")))
}

fn parse_fsync(s: &str) -> FsyncPolicy {
    if s == "always" {
        return FsyncPolicy::Always;
    }
    if s == "batch" {
        return FsyncPolicy::default();
    }
    if let Some(rest) = s.strip_prefix("batch:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if let [ops, ms] = parts[..] {
            return FsyncPolicy::Batch {
                max_ops: parse(ops),
                max_delay: Duration::from_millis(parse(ms)),
            };
        }
    }
    die("--fsync takes always, batch, or batch:<OPS>:<MS>")
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
