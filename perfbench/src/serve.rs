//! serve-mixed: an in-process `argo-serve` daemon on loopback TCP over a
//! fresh store, driven by closed-loop clients (each sends its next
//! request only after the reply arrives, as a build tool does) that
//! replay the seeded request stream of `gen::serve_stream`.
//!
//! One repetition is one pass: boot a daemon over a fresh store (the
//! set-up), replay the whole stream, check every reply, shut down.

use crate::check::{soundness_pass, Gate};
use crate::gen::{self, Spec};
use crate::layers::Tracing;
use crate::stats::{geomean, median};
use crate::{Args, Measured, Rep};
use argo_dse::{DesignSpace, Explorer, ReportRow};
use argo_serve::{parse_request, Client, Listener, Request, ServeConfig, Server, Value};
use argo_store::Store;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients replaying the stream concurrently.
const CLIENTS: usize = 2;

/// The reply frame with its `"id":N,` field removed: what must repeat
/// byte-for-byte for one fingerprint.
fn body_of(terminal: &str) -> String {
    match terminal.split_once("\"id\":") {
        Some((head, tail)) => {
            let rest = tail.split_once(',').map_or("", |(_, rest)| rest);
            format!("{head}{rest}")
        }
        None => terminal.to_string(),
    }
}

/// The point a request line asks for, as the daemon parses it.
fn point_of(line: &str) -> (argo_dse::ExplorationPoint, DesignSpace) {
    match parse_request(line)
        .expect("generated request lines parse")
        .request
    {
        Request::Compile(spec) | Request::Verify(spec) => (spec.point(), spec.space()),
        _ => unreachable!("the stream holds only compile and verify requests"),
    }
}

/// What a reply must say, from an in-process explorer row.
fn expected_fields(row: &ReportRow, verify: bool) -> Vec<(String, String)> {
    let mut out = vec![("label".into(), row.point.label())];
    match &row.outcome {
        Ok(m) if verify => out.push(("findings".into(), m.verify_findings.to_string())),
        Ok(m) => out.extend([
            ("tasks".into(), m.tasks.to_string()),
            ("signals".into(), m.signals.to_string()),
            ("seq_bound".into(), m.seq_bound.to_string()),
            ("par_bound".into(), m.par_bound.to_string()),
            ("speedup".into(), format!("{:.4}", m.speedup)),
            (
                "feedback_iterations".into(),
                m.feedback_iterations.to_string(),
            ),
            ("verify_findings".into(), m.verify_findings.to_string()),
        ]),
        Err(d) => out.push(("code".into(), d.code.label().into())),
    }
    out
}

fn text(v: Option<&Value>, key: &str) -> String {
    match v {
        Some(Value::Num(n)) if key == "speedup" => format!("{n:.4}"),
        Some(Value::Num(n)) => format!("{}", *n as u64),
        Some(Value::Str(s)) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// The same fields read from a reply frame.
fn reply_fields(frame: &Value, verify: bool) -> Vec<(String, String)> {
    let field = |obj: Option<&Value>, key: &str| text(obj.and_then(|o| o.get(key)), key);
    if frame.get("ok").and_then(Value::as_bool) == Some(true) {
        let result = frame.get("result");
        let body = result.and_then(|r| r.get("body"));
        let mut out = vec![("label".into(), field(result, "label"))];
        let keys: &[&str] = if verify {
            &["findings"]
        } else {
            &[
                "tasks",
                "signals",
                "seq_bound",
                "par_bound",
                "speedup",
                "feedback_iterations",
                "verify_findings",
            ]
        };
        out.extend(keys.iter().map(|k| (k.to_string(), field(body, k))));
        out
    } else {
        vec![
            ("label".into(), field(Some(frame), "label")),
            ("code".into(), field(frame.get("error"), "code")),
        ]
    }
}

struct Pass {
    store: Arc<Store>,
    dir: std::path::PathBuf,
    setup_s: f64,
    wall_s: f64,
    /// `(stream index, latency ms, terminal frame)` of every request.
    replies: Vec<(usize, f64, String)>,
    cache: argo_dse::CacheStats,
    stages: argo_dse::StageTimings,
    coalesced: u64,
    store_entries: u64,
    store_bytes: u64,
    queue_depth_max: u64,
}

fn stats(client: &mut Client) -> Option<Value> {
    let reply = client.request(r#"{"id":0,"kind":"stats"}"#).ok()?;
    reply.frame().ok()?.get("result").cloned()
}

/// One pass: boot, replay, shut down. `sample_queue` polls the
/// daemon's queue depth with a third client. The polling is load, so
/// only a pass that is neither timed nor traced samples.
fn one_pass(args: &Args, lines: &[String], n: usize, sample_queue: bool) -> Pass {
    // The empty directory is made before the clock starts: on a busy
    // filesystem a mkdir can wait milliseconds for the journal, which
    // would drown the boot being timed.
    let dir = args.work.join(format!("serve-{n}"));
    std::fs::create_dir_all(dir.join("tmp")).expect("creating the store directory");
    let t0 = Instant::now();
    let store = Arc::new(Store::open(&dir).expect("opening a fresh store"));
    let explorer = Explorer::with_threads(args.threads).with_store(Arc::clone(&store));
    let cfg = ServeConfig {
        workers: args.threads,
        eval_threads: 1,
        ..ServeConfig::default()
    };
    let server = Server::start(
        Listener::tcp("127.0.0.1:0").expect("binding loopback"),
        explorer,
        cfg,
    )
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect_tcp(&addr).expect("client connects"))
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    let done = AtomicBool::new(false);
    let depth_max = AtomicU64::new(0);
    let t0 = Instant::now();
    let replies: Vec<(usize, f64, String)> = std::thread::scope(|scope| {
        let sampler = sample_queue.then(|| {
            let (addr, done, depth_max) = (&addr, &done, &depth_max);
            scope.spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("sampler connects");
                while !done.load(Ordering::Acquire) {
                    let depth = stats(&mut c)
                        .and_then(|r| {
                            r.get("queue")
                                .and_then(|q| q.get("depth"))
                                .and_then(Value::as_u64)
                        })
                        .unwrap_or(0);
                    depth_max.fetch_max(depth, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, line) in lines.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let t = Instant::now();
                        let terminal = match client.request(line) {
                            Ok(reply) => reply.terminal,
                            Err(e) => {
                                format!("{{\"frame\":\"transport-error\",\"error\":\"{e}\"}}")
                            }
                        };
                        out.push((i, t.elapsed().as_secs_f64() * 1e3, terminal));
                    }
                    out
                })
            })
            .collect();
        let mut all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        if let Some(s) = sampler {
            s.join().expect("sampler panicked");
        }
        all.sort_by_key(|r| r.0);
        all
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let cache = server.cache_stats();
    let stages = server.stage_timings();
    let (_, coalesced) = server.singleflight_counts();
    let mut control = Client::connect_tcp(&addr).expect("control client connects");
    let _ = control.request(r#"{"id":0,"kind":"shutdown"}"#);
    drop(clients);
    server.join();
    let s = store.stats();
    Pass {
        store,
        dir,
        setup_s,
        wall_s,
        replies,
        cache,
        stages,
        coalesced,
        store_entries: s.entries,
        store_bytes: s.bytes,
        queue_depth_max: depth_max.load(Ordering::Relaxed),
    }
}

pub fn run(args: &Args, gate: &mut Gate, tracing: &mut Tracing) -> Measured {
    let stream = gen::serve_stream(args.seed);
    let lines: Vec<String> = stream
        .iter()
        .enumerate()
        .map(|(i, r)| {
            r.spec.line(
                i + 1,
                if r.verify { "verify" } else { "compile" },
                args.seed,
            )
        })
        .collect();
    let fresh = stream.iter().filter(|r| r.fresh).count();
    let verifies = stream.iter().filter(|r| r.verify).count();
    let distinct: BTreeSet<&Spec> = stream.iter().map(|r| &r.spec).collect();
    println!(
        "serve stream: {} requests, {} fresh fingerprints ({:.1}%), {} verify ({:.1}%), {} distinct points",
        lines.len(),
        fresh,
        100.0 * fresh as f64 / lines.len() as f64,
        verifies,
        100.0 * verifies as f64 / lines.len() as f64,
        distinct.len()
    );

    // Reference rows from an in-process explorer (no store, no daemon),
    // one per distinct point of the stream.
    let first_line: BTreeMap<&Spec, usize> = stream
        .iter()
        .enumerate()
        .rev()
        .map(|(i, r)| (&r.spec, i))
        .collect();
    let reference = Explorer::with_threads(args.threads);
    let points: Vec<(&Spec, argo_dse::ExplorationPoint, DesignSpace)> = first_line
        .iter()
        .map(|(spec, &i)| {
            let (p, s) = point_of(&lines[i]);
            (*spec, p, s)
        })
        .collect();
    let rows: Vec<ReportRow> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.threads)
            .map(|t| {
                let (points, reference) = (&points, &reference);
                scope.spawn(move || {
                    points
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(args.threads)
                        .map(|(k, (_, p, s))| (k, reference.evaluate_point(p.clone(), s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rows: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect();
        rows.sort_by_key(|r| r.0);
        rows.into_iter().map(|(_, row)| row).collect()
    });
    let by_spec: BTreeMap<&Spec, &ReportRow> =
        points.iter().map(|(s, _, _)| *s).zip(&rows).collect();
    let speedups: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|m| m.seq_bound as f64 / m.par_bound as f64)
        .collect();

    let mut bodies: BTreeMap<String, String> = BTreeMap::new();
    let mut first_counts: Option<Vec<(String, u64)>> = None;
    let mut passes = 0usize;
    let (mut coalesced, mut depth_max) = (Vec::new(), 0u64);
    let mut last_traced: Option<Pass> = None;
    let sample_queue = Cell::new(false);
    let mut one_rep = |gate: &mut Gate, traced: bool| -> Rep {
        let pass = one_pass(args, &lines, passes, sample_queue.get());
        passes += 1;
        for (i, _, terminal) in &pass.replies {
            let req = &stream[*i];
            let key = format!("{}:{:?}", req.verify, req.spec);
            let body = body_of(terminal);
            match bodies.get(&key) {
                Some(first) => {
                    gate.expect_eq("reply body repeats for one fingerprint", &body, first)
                }
                None => {
                    gate.check(match Value::parse(terminal) {
                        Ok(frame)
                            if frame.get("frame").and_then(Value::as_str) == Some("response") =>
                        {
                            let want = expected_fields(by_spec[&req.spec], req.verify);
                            let got = reply_fields(&frame, req.verify);
                            if got == want {
                                Ok(())
                            } else {
                                Err(format!(
                                    "reply {got:?} differs from the explorer row {want:?}"
                                ))
                            }
                        }
                        _ => Err(format!("request {} got an error frame: {terminal}", i + 1)),
                    });
                    bodies.insert(key, body);
                }
            }
        }
        let counts = vec![
            ("serve.requests".to_string(), pass.replies.len() as u64),
            ("stage.frontend_runs".into(), pass.stages.frontend.runs),
            ("stage.seed_cost_runs".into(), pass.stages.seed_costs.runs),
            ("stage.backend_runs".into(), pass.stages.backend.runs),
            ("stage.verify_runs".into(), pass.stages.verify.runs),
            ("sched.builds".into(), pass.cache.sched_misses),
            (
                "cache.point_store_misses".into(),
                pass.cache.point_store_misses,
            ),
            ("store.entries".into(), pass.store_entries),
            ("store.bytes".into(), pass.store_bytes),
        ];
        gate.expect_eq(
            "one pipeline execution per distinct fresh point",
            (pass.stages.backend.runs, pass.cache.point_store_misses),
            (distinct.len() as u64, distinct.len() as u64),
        );
        match &first_counts {
            None => first_counts = Some(counts.clone()),
            Some(first) => gate.expect_eq("work counts repeat across passes", &counts, first),
        }
        let rep = Rep {
            setup_s: pass.setup_s,
            wall_s: pass.wall_s,
            items: pass.replies.len(),
            latencies_ms: pass.replies.iter().map(|r| r.1).collect(),
            counts,
        };
        depth_max = depth_max.max(pass.queue_depth_max);
        if traced {
            coalesced.push(pass.coalesced as f64);
            // The last traced pass's store feeds the layer calls.
            if let Some(old) = last_traced.replace(pass) {
                let _ = std::fs::remove_dir_all(&old.dir);
            }
        } else {
            let _ = std::fs::remove_dir_all(&pass.dir);
        }
        rep
    };
    let reps = tracing.measure(args, gate, &mut one_rep);
    if tracing.is_traced() {
        // Queue depth comes from one extra pass, checked like the
        // others but left out of every timing and of
        // `trace.overhead_ratio`.
        sample_queue.set(true);
        one_rep(gate, false);
    }

    // Untimed soundness pass over every distinct point of the stream.
    let checked: Vec<(ReportRow, &DesignSpace)> = points
        .iter()
        .zip(&rows)
        .map(|((_, _, space), row)| (row.clone(), space))
        .collect();
    let (tightness, derived) = soundness_pass(&checked, args.seed, args.threads, gate);
    gate.check(if tightness.is_empty() {
        Err("soundness pass: no point was re-derived".into())
    } else {
        Ok(())
    });
    if let Some(pass) = last_traced {
        tracing.add_compute_layers(&derived, args.seed);
        tracing.set("serve.coalesced", median(&coalesced));
        tracing.set("serve.pipeline_runs", pass.stages.backend.runs as f64);
        tracing.set("serve.queue_depth_max", depth_max as f64);
        tracing.set_cache_ratios(&pass.cache);
        tracing.add_store_handle(&pass.store, pass.store_entries, pass.store_bytes);
        let reads = pass.cache.point_store_hits as f64 / distinct.len() as f64;
        drop(pass.store);
        tracing.add_codec_layers(&pass.dir, reads);
        let _ = std::fs::remove_dir_all(&pass.dir);
    }
    Measured {
        setup_s: median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        reps,
        unit: "pass",
        speedup_geomean: geomean(&speedups),
        tightness_geomean: if tightness.is_empty() {
            f64::NAN
        } else {
            geomean(&tightness)
        },
        extra_counts: vec![("serve.passes".into(), passes as u64)],
    }
}
