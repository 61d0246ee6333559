//! The traced run: each layer timed from outside by wrapping calls to
//! its public functions, with the filter/refine split cross-checked
//! against the counters the real probe reports.

use std::time::Instant;

use geom::engine::{FlatEngine, NaiveEngine, PreparedEngine, RefinementEngine, SpatialPredicate};
use geom::{Envelope, Geometry, HasEnvelope};
use minihdfs::MiniDfs;
use rtree::RTree;
use spatialjoin::{
    normalize_pairs, GeomRecord, JoinPair, JoinRequest, MorselConfig, PointRecord, PreparedSet,
    RecordReader,
};

use crate::paths::{self, Digest, Output, Path};
use crate::report::{percentile, Samples, Tally};
use crate::workload::{Spec, LEFT_PATH, RIGHT_PATH};

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn same_pairs(what: &str, got: &[JoinPair], want: &[JoinPair]) -> Result<(), String> {
    if got == want || normalize_pairs(got.to_vec()) == normalize_pairs(want.to_vec()) {
        Ok(())
    } else {
        Err(format!(
            "{what} gave {} pairs, direct emitted {}",
            got.len(),
            want.len()
        ))
    }
}

/// One path run through [`paths::run`], counted and checked; returns
/// the output and its wall seconds.
fn path_run(
    path: Path,
    dfs: &MiniDfs,
    spec: &Spec,
    threads: usize,
    reference: Digest,
    tally: &mut Tally,
) -> Result<(Output, f64), String> {
    let t = paths::run(path, dfs, spec, threads);
    if tally.record(path.name(), t.check(reference)) {
        t.output.map(|o| (o, t.wall_s))
    } else {
        Err(format!("{} run failed", path.name()))
    }
}

/// One traced round. Every metric it pushes is a per-layer metric; an
/// `Err` is a failed cross-check or path run and ends the traced run.
pub fn round(
    dfs: &MiniDfs,
    spec: &Spec,
    threads: usize,
    reference: Digest,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    // The direct path untraced, exactly as the end-to-end run times it,
    // then traced.
    let (_, untraced_s) = path_run(Path::Direct, dfs, spec, threads, reference, tally)?;
    let direct_pairs = traced_direct(dfs, spec, threads, reference, s, tally)?;
    s.push("bench.direct_untraced_s", "s", untraced_s);

    // The layers below the request, on an untimed copy of both sides.
    let (left, right) = paths::read_sides(dfs)?;
    let candidates = filter_refine(&left, &right, spec.predicate, &direct_pairs, s)?;
    parallel_probe(
        &left,
        &right,
        spec.predicate,
        threads,
        &direct_pairs,
        candidates,
        s,
    )?;
    exchange(&right, s)?;
    drop((left, right, direct_pairs));

    sparklet(dfs, spec, threads, reference, s, tally)?;
    impalite(dfs, spec, threads, reference, s, tally)?;
    s.push("bench.pairs", "count", reference.count as f64);
    Ok(())
}

/// The direct path with each layer call wrapped in a timer. Like the
/// untraced path it drops its inputs inside the timed window.
fn traced_direct(
    dfs: &MiniDfs,
    spec: &Spec,
    threads: usize,
    reference: Digest,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<Vec<JoinPair>, String> {
    let reader = RecordReader::new(1);
    let t_all = Instant::now();
    let (left_lines, read_left_s) = timed(|| dfs.read_all_lines(LEFT_PATH));
    let (right_lines, read_right_s) = timed(|| dfs.read_all_lines(RIGHT_PATH));
    let left_lines = left_lines.map_err(|e| e.to_string())?;
    let right_lines = right_lines.map_err(|e| e.to_string())?;
    let before = obs::thread_snapshot();
    let ((left, _), parse_left_s) = timed(|| reader.read_points(&left_lines));
    let ((right, _), parse_right_s) = timed(|| reader.read_geoms(&right_lines));
    let records = obs::thread_snapshot().minus(&before);
    let (pairs, request_s) = timed(|| {
        JoinRequest::new(&left, &right, &PreparedEngine)
            .predicate(spec.predicate)
            .threads(threads)
            .run()
            .pairs
    });
    drop((left_lines, right_lines, left, right));
    let traced_s = t_all.elapsed().as_secs_f64();
    if !tally.record("traced direct", reference.check(&pairs)) {
        return Err("traced direct run failed".into());
    }
    let mut bytes_read = 0;
    for path in [LEFT_PATH, RIGHT_PATH] {
        bytes_read += dfs.stat(path).map_err(|e| e.to_string())?.total_bytes;
    }
    s.push("minihdfs.read_left_s", "s", read_left_s);
    s.push("minihdfs.read_right_s", "s", read_right_s);
    s.push("minihdfs.bytes_read", "B", bytes_read as f64);
    s.push("reader.parse_left_s", "s", parse_left_s);
    s.push("reader.parse_right_s", "s", parse_right_s);
    s.push(
        "reader.records_parsed",
        "count",
        records.records_parsed as f64,
    );
    s.push(
        "reader.records_skipped",
        "count",
        records.records_skipped as f64,
    );
    s.push("spatialjoin.request_s", "s", request_s);
    s.push("bench.direct_traced_s", "s", traced_s);
    Ok(pairs)
}

/// Candidate and node-visit counts of the outside filter pass.
#[derive(Clone, Copy)]
struct Candidates {
    candidates: u64,
    node_visits: u64,
}

/// geom + rtree: prepare, build the filter tree, filter, then refine the
/// candidate list serially with each engine. Every engine must accept
/// exactly the pairs the direct path emitted.
fn filter_refine(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    direct_pairs: &[JoinPair],
    s: &mut Samples,
) -> Result<Candidates, String> {
    let (prepared, prepare_s) = timed(|| {
        right
            .iter()
            .map(|(_, g)| PreparedEngine.prepare(g))
            .collect::<Vec<_>>()
    });
    let radius = predicate.filter_radius();
    let entries: Vec<(Envelope, u32)> = right
        .iter()
        .enumerate()
        .map(|(i, (_, g))| (g.envelope().expanded_by(radius), i as u32))
        .collect();
    let (tree, build_s) = timed(|| RTree::bulk_load_entries(entries));
    // The probe's own traversal (`for_each_within_distance` at radius 0
    // over the expanded envelopes), counting only; it reports node visits.
    let ((candidates, node_visits), filter_s) = timed(|| {
        let (mut c, mut n) = (0u64, 0u64);
        for &(_, p) in left {
            n += tree.for_each_within_distance(p, 0.0, |_| c += 1);
        }
        (c, n)
    });
    let mut list: Vec<(u32, u32)> = Vec::with_capacity(candidates as usize);
    for (li, &(_, p)) in left.iter().enumerate() {
        tree.for_each_within_distance(p, 0.0, |&ri| list.push((li as u32, ri)));
    }
    drop(tree);
    let right_ids: Vec<i64> = right.iter().map(|&(id, _)| id).collect();
    let pass = |name, accepted: Vec<JoinPair>| -> Result<usize, String> {
        same_pairs(name, &accepted, direct_pairs)?;
        Ok(accepted.len())
    };

    let (accepted, refine_prepared_s) = refine(
        &PreparedEngine,
        &prepared,
        predicate,
        left,
        &right_ids,
        &list,
    );
    drop(prepared);
    let accepts = pass("prepared refine", accepted)?;
    let flat: Vec<Geometry> = right.iter().map(|(_, g)| FlatEngine.prepare(g)).collect();
    let before = obs::thread_snapshot();
    let (accepted, refine_flat_s) = refine(&FlatEngine, &flat, predicate, left, &right_ids, &list);
    let edge_visits = obs::thread_snapshot().minus(&before).edge_visits;
    drop(flat);
    pass("flat refine", accepted)?;
    let naive: Vec<Geometry> = right.iter().map(|(_, g)| NaiveEngine.prepare(g)).collect();
    let (accepted, refine_naive_s) =
        refine(&NaiveEngine, &naive, predicate, left, &right_ids, &list);
    drop(naive);
    pass("naive refine", accepted)?;

    s.push("rtree.build_s", "s", build_s);
    s.push("rtree.filter_s", "s", filter_s);
    s.push("rtree.candidates", "count", candidates as f64);
    s.push("rtree.node_visits", "count", node_visits as f64);
    s.push("geom.prepare_s", "s", prepare_s);
    s.push("geom.refine_prepared_s", "s", refine_prepared_s);
    s.push("geom.refine_flat_s", "s", refine_flat_s);
    s.push("geom.refine_naive_s", "s", refine_naive_s);
    s.push("geom.refine_accepts", "count", accepts as f64);
    s.push(
        "geom.refine_precision",
        "ratio",
        accepts as f64 / candidates.max(1) as f64,
    );
    s.push("geom.edge_visits", "count", edge_visits as f64);
    Ok(Candidates {
        candidates,
        node_visits,
    })
}

/// One serial refinement pass over the candidate list, returning the
/// accepted pairs in candidate order.
fn refine<E: RefinementEngine>(
    engine: &E,
    targets: &[E::Prepared],
    predicate: SpatialPredicate,
    left: &[PointRecord],
    right_ids: &[i64],
    candidates: &[(u32, u32)],
) -> (Vec<JoinPair>, f64) {
    timed(|| {
        let mut out = Vec::new();
        for &(li, ri) in candidates {
            let (lid, p) = left[li as usize];
            if predicate.eval(engine, p, &targets[ri as usize]) {
                out.push((lid, right_ids[ri as usize]));
            }
        }
        out
    })
}

/// parallel + pool: the morsel-parallel probe the request runs. Its
/// counted filter hits and node visits must equal the outside pass's.
fn parallel_probe(
    left: &[PointRecord],
    right: &[GeomRecord],
    predicate: SpatialPredicate,
    threads: usize,
    direct_pairs: &[JoinPair],
    outside: Candidates,
    s: &mut Samples,
) -> Result<(), String> {
    let set = PreparedSet::prepare(right, predicate, &PreparedEngine);
    let before = obs::thread_snapshot();
    let ((pairs, timings, exec), probe_s) =
        timed(|| set.par_probe_observed(left, &PreparedEngine, MorselConfig::new(threads)));
    let counted = obs::thread_snapshot()
        .minus(&before)
        .plus(&exec.worker_counters);
    if counted.filter_hits != outside.candidates || counted.node_visits != outside.node_visits {
        return Err(format!(
            "filter split: outside pass {} candidates / {} nodes, probe counted {} / {}",
            outside.candidates, outside.node_visits, counted.filter_hits, counted.node_visits
        ));
    }
    same_pairs("parallel probe", &pairs, direct_pairs)?;

    let busy: Vec<f64> = exec
        .workers
        .iter()
        .map(|w| w.busy_ns as f64 / 1e9)
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let busy_mean = busy_sum / busy.len().max(1) as f64;
    let wait_sum: f64 = exec.workers.iter().map(|w| w.wait_ns as f64 / 1e9).sum();
    let morsel_ms: Vec<f64> = timings.iter().map(|t| t.secs * 1e3).collect();
    let tail_pct = tail_percentile(morsel_ms.len());
    s.push("parallel.probe_s", "s", probe_s);
    s.push("pool.busy_s", "s", busy_sum);
    s.push("pool.wait_s", "s", wait_sum);
    s.push(
        "pool.imbalance",
        "ratio",
        busy_max / busy_mean.max(f64::MIN_POSITIVE),
    );
    s.push("pool.overhead_s", "s", probe_s - busy_max);
    s.push("pool.morsel_p50_ms", "ms", percentile(&morsel_ms, 50.0));
    s.push(
        "pool.morsel_tail_ms",
        "ms",
        percentile(&morsel_ms, tail_pct),
    );
    s.push("pool.morsel_tail_pct", "%", tail_pct);
    s.push("pool.morsels", "count", morsel_ms.len() as f64);
    Ok(())
}

/// The highest of a few percentiles that leaves at least ten morsels
/// beyond it (the median when there are fewer than twenty morsels).
fn tail_percentile(morsels: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| morsels as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// exchange: the broadcast right side through `geom::binary` and back;
/// the round trip must return the parsed right side unchanged.
fn exchange(right: &[GeomRecord], s: &mut Samples) -> Result<(), String> {
    let (buf, encode_s) = timed(|| {
        let mut buf = Vec::new();
        for (_, g) in right {
            geom::binary::encode_into(g, &mut buf);
        }
        buf
    });
    let (decoded, decode_s) = timed(|| {
        let mut out = Vec::with_capacity(right.len());
        let mut pos = 0;
        while pos < buf.len() {
            let (g, used) = geom::binary::decode(&buf[pos..])?;
            pos += used;
            out.push(g);
        }
        Ok::<_, geom::GeomError>(out)
    });
    let decoded = decoded.map_err(|e| format!("exchange decode: {e}"))?;
    if decoded.len() != right.len() || decoded.iter().zip(right).any(|(d, (_, g))| d != g) {
        return Err("exchange round trip changed the right side".into());
    }
    s.push("exchange.encode_s", "s", encode_s);
    s.push("exchange.decode_s", "s", decode_s);
    s.push("exchange.bytes", "B", buf.len() as f64);
    Ok(())
}

/// sparklet: the stages SpatialSpark records, and the broadcast size its
/// replay charges.
fn sparklet(
    dfs: &MiniDfs,
    spec: &Spec,
    threads: usize,
    reference: Digest,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let (Output::Spark(run), spark_s) =
        path_run(Path::Spark, dfs, spec, threads, reference, tally)?
    else {
        return Err("spark path returned another output".into());
    };
    let stages = &run.report.stages;
    let stage_sum = |prefix: &str| -> (f64, usize) {
        stages
            .iter()
            .filter(|st| st.name.starts_with(prefix))
            .fold((0.0, 0), |(w, n), st| {
                (w + st.total_work(), n + st.tasks.len())
            })
    };
    let (build, _) = stage_sum("driver:");
    let (parse, parse_tasks) = stage_sum("map:");
    let (probe, probe_tasks) = stage_sum("flatMap:");
    let tasks: usize = stages.iter().map(|st| st.tasks.len()).sum();
    s.push("sparklet.build_s", "s", build);
    s.push("sparklet.parse_s", "s", parse);
    s.push("sparklet.probe_s", "s", probe);
    s.push("sparklet.tasks", "count", tasks as f64);
    s.push("sparklet.parse_tasks", "count", parse_tasks as f64);
    s.push("sparklet.probe_tasks", "count", probe_tasks as f64);
    s.push(
        "sparklet.overhead_s",
        "s",
        spark_s - build - (parse + probe) / threads as f64,
    );
    s.push(
        "exchange.model_bytes",
        "B",
        run.report.total_broadcast_bytes() as f64,
    );
    Ok(())
}

/// impalite: the fragments ISP-MC measures.
fn impalite(
    dfs: &MiniDfs,
    spec: &Spec,
    threads: usize,
    reference: Digest,
    s: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let (Output::IspMc(run), _) = path_run(Path::IspMc, dfs, spec, threads, reference, tally)?
    else {
        return Err("ispmc path returned another output".into());
    };
    let m = &run.result.metrics;
    let probe_work: f64 = m.probe_batches.iter().map(|b| b.total()).sum();
    let barrier: f64 = m.probe_batches.iter().map(|b| b.barrier_time()).sum();
    let scan: f64 = m.scan_tasks.iter().map(|t| t.cost).sum();
    s.push("impalite.scan_s", "s", scan);
    s.push("impalite.scan_tasks", "count", m.scan_tasks.len() as f64);
    s.push("impalite.build_s", "s", m.build_secs);
    s.push("impalite.probe_work_s", "s", probe_work);
    s.push("impalite.barrier_s", "s", barrier);
    s.push("impalite.row_batches", "count", m.num_batches() as f64);
    s.push(
        "impalite.barrier_eff",
        "ratio",
        probe_work / (barrier * m.chunks_per_batch.max(1) as f64).max(f64::MIN_POSITIVE),
    );
    s.push("impalite.broadcast_bytes", "B", m.broadcast_bytes as f64);
    Ok(())
}
