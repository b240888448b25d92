//! The traced replay: each workload's work re-executed as a sequence of
//! public layer calls made by the benchmark, each wrapped in a span.
//!
//! Every span is one real call (or a loop of real calls) into a layer;
//! nothing inside sixscope is instrumented. A layer the workload calls
//! only from deep inside one public function (the simulator's fused
//! generate→deliver, the serve daemon's checkpoint) is replayed as that
//! one opaque span, or re-composed from the same public calls the
//! pipeline makes (feed → sessionize → index push → finalize) and
//! timed there.

use crate::inputs::{PcapInputs, Res};
use crate::trace::Tracer;
use crate::workloads::{self, err, Bench, Tally, CHUNK_RECORDS};
use sixscope::analysis::classify::profile_scanners;
use sixscope::index::{CorpusIndex, IndexShard};
use sixscope::ingest::passive_config;
use sixscope::packet::{MappedPcap, ParsedView, ViewOutcome};
use sixscope::scanners::population::PopulationSpec;
use sixscope::serve::analysis_report;
use sixscope::shardfile::{decode_shard, encode_shard};
use sixscope::sim::{CompiledVisibility, ExperimentResult, Scenario, ScenarioConfig, Visibility};
use sixscope::telescope::{
    AggLevel, Capture, Feed, IncrementalSessionizer, PcapFeed, ScanSession, TailFeed, TelescopeId,
    SESSION_TIMEOUT,
};
use sixscope::types::SimTime;
use sixscope::{figures, render, tables, Analyzed, Pipeline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Duration;

/// Counters a replay reads off the layers' outputs (work counts, not
/// times), reported next to the spans.
pub type Counters = BTreeMap<&'static str, f64>;

/// Replays `w` under root span `w.name()`.
pub fn replay(
    b: &Bench,
    w: workloads::Workload,
    t: &mut Tracer,
    tally: &mut Tally,
    counters: &mut Counters,
) -> Res<()> {
    use workloads::Workload::*;
    match w {
        Repro => repro(b, t, tally, counters),
        AnalyzePcap => analyze_pcap(b, t, tally, counters),
        ShardMerge => shard_merge(b, t, tally, counters),
        ServeTail => serve_tail(b, t, tally, counters),
    }
}

/// Incremental /128 + /64 sessionizers and the index-shard accumulator —
/// the state the pipeline keeps per telescope while a feed is consumed.
struct Consumer {
    s128: IncrementalSessionizer,
    s64: IncrementalSessionizer,
    shard: IndexShard,
}

impl Consumer {
    fn new() -> Consumer {
        Consumer {
            s128: IncrementalSessionizer::with_capacity(AggLevel::Addr128, SESSION_TIMEOUT, 16),
            s64: IncrementalSessionizer::with_capacity(AggLevel::Subnet64, SESSION_TIMEOUT, 16),
            shard: IndexShard::new(),
        }
    }

    /// Feeds capture packets `range` through spans `telescope.sessionize`
    /// and `core.index.push`.
    fn consume(
        &mut self,
        t: &mut Tracer,
        capture: &Capture,
        range: std::ops::Range<usize>,
        compiled: &CompiledVisibility,
    ) {
        if range.is_empty() {
            return;
        }
        let n = range.len() as u64;
        t.span("telescope.sessionize", |_| {
            for (i, p) in capture.packets()[range.clone()].iter().enumerate() {
                let idx = u32::try_from(range.start + i).expect("capture fits u32 indices");
                self.s128.push(idx, p);
                self.s64.push(idx, p);
            }
            ((), n)
        });
        t.span("core.index.push", |_| {
            let mut piece = IndexShard::new();
            piece.push_range(capture, range.clone(), compiled);
            self.shard.absorb(piece);
            ((), n)
        });
    }

    fn peak_open(&self) -> usize {
        self.s128.peak_open().max(self.s64.peak_open())
    }

    fn finish(self) -> (Vec<ScanSession>, Vec<ScanSession>, IndexShard, usize) {
        let peak = self.peak_open();
        (self.s128.finish(), self.s64.finish(), self.shard, peak)
    }
}

/// Runs `core.index.finalize` over per-telescope consumer output.
fn finalize(
    t: &mut Tracer,
    result: &ExperimentResult,
    fed: BTreeMap<TelescopeId, (Vec<ScanSession>, Vec<ScanSession>, IndexShard)>,
    threads: usize,
) -> CorpusIndex {
    let mut s128 = BTreeMap::new();
    let mut s64 = BTreeMap::new();
    let mut shards = BTreeMap::new();
    for (id, (a, b, shard)) in fed {
        s128.insert(id, a);
        s64.insert(id, b);
        shards.insert(id, shard);
    }
    // Telescopes without packets take part empty, as in the pipeline.
    for id in TelescopeId::ALL {
        s128.entry(id).or_default();
        s64.entry(id).or_default();
        shards.entry(id).or_insert_with(IndexShard::new);
    }
    let packets = result.total_packets() as u64;
    t.span("core.index.finalize", |_| {
        (
            CorpusIndex::from_shards(result, shards, &s128, &s64, threads),
            packets,
        )
    })
}

/// An empty gathered corpus result (what the pcap path wraps its
/// telescope in), obtained from the pipeline over a header-only capture.
fn empty_result(p: &PcapInputs, prefix: sixscope::types::Ipv6Prefix) -> Res<ExperimentResult> {
    Ok(Pipeline::from_pcaps([&p.empty])
        .prefix(prefix)
        .threads(1)
        .run()
        .map_err(err)?
        .result)
}

fn repro(b: &Bench, t: &mut Tracer, tally: &mut Tally, counters: &mut Counters) -> Res<()> {
    let (seed, scale, threads) = (b.scenario_seed, b.scales.repro, b.threads);
    let mut config = ScenarioConfig::new(seed, scale);
    config.threads = Some(threads);
    t.try_span("repro", |t| {
        t.span("bgp.control_plane", |_| {
            let events = Scenario::new(config.clone()).run_control_plane();
            let n = events.len() as u64;
            (black_box(events), n)
        });
        t.span("scanners.population_build", |_| {
            let population = PopulationSpec { seed, scale }.build(&config.layout);
            let n = population.len() as u64;
            (black_box(population), n)
        });
        let result = t.span("sim.run", |_| {
            let (result, _) = Scenario::new(config.clone()).run_timed();
            let n = result.total_packets() as u64;
            (result, n)
        });
        counters.insert("sim.packets", result.total_packets() as f64);
        counters.insert("sim.dropped_unrouted", result.dropped_unrouted as f64);
        counters.insert("sim.truncated_probes", result.truncated_probes as f64);

        // The analysis re-composed from its layers, then the corpus the
        // way the pipeline builds it.
        let compiled = CompiledVisibility::compile(&result.visibility);
        t.span("core.pipeline.replay", |t| {
            let mut fed = BTreeMap::new();
            for id in TelescopeId::ALL {
                let capture = &result.captures[&id];
                let mut consumer = Consumer::new();
                let mut start = 0;
                while start < capture.len() {
                    let end = (start + CHUNK_RECORDS).min(capture.len());
                    consumer.consume(t, capture, start..end, &compiled);
                    start = end;
                }
                let (a, b, shard, _) = consumer.finish();
                fed.insert(id, (a, b, shard));
            }
            black_box(finalize(t, &result, fed, threads));
            ((), result.total_packets() as u64)
        });
        let analyzed = t.span("core.corpus.from_result", |_| {
            let n = result.total_packets() as u64;
            (Analyzed::from_result(result), n)
        });
        counters.insert(
            "telescope.sessions128",
            analyzed.all_sessions128().count() as f64,
        );
        counters.insert("telescope.peak_open", analyzed.peak_open_sessions as f64);
        drop(analyzed);

        // The workload itself: the pipeline, then the EXPERIMENTS.md body.
        let out = t.span("core.pipeline.run", |_| {
            let res = Pipeline::simulate(config.clone())
                .threads(threads)
                .run_detailed();
            let n = res
                .as_ref()
                .map_or(0, |o| o.analyzed.result.total_packets() as u64);
            (res, n)
        });
        let out = out.map_err(err)?;
        let (report, ..) = t.span("bench.report.experiments", |_| {
            let built = workloads::experiments_report(&out.analyzed);
            let n = built.2 as u64;
            (built, n)
        });
        tally.record(
            Some(&report) == b.refs.repro.as_ref(),
            "repro replay: report differs from the reference",
        );
        report_kernels(t, &out.analyzed);
        Ok::<_, String>(((), 1))
    })?;
    Ok(())
}

/// Times each table and figure kernel and the text renderers over `a`.
fn report_kernels(t: &mut Tracer, a: &Analyzed) {
    let start = SimTime::EPOCH;
    let (boundary, end) = (a.split_start(), a.result.layout.end);
    let tables = t.span("core.tables", |t| {
        let overview = t.span("core.tables.corpus_overview", |_| {
            let initial = tables::corpus_overview(a, start, boundary);
            let full = tables::corpus_overview(a, start, end);
            ((initial, full), 2)
        });
        let t2 = t.span("core.tables.table2", |_| (tables::table2(a), 1));
        let t3 = t.span("core.tables.table3", |_| {
            let rows = tables::table3(a);
            let n = rows.len() as u64;
            (rows, n)
        });
        let t4 = t.span("core.tables.table4", |_| (tables::table4(a), 1));
        let t5 = t.span("core.tables.table5", |_| (tables::table5(a), 1));
        let t6 = t.span("core.tables.table6", |_| (tables::table6(a), 1));
        let t7 = t.span("core.tables.table7", |_| {
            let rows = tables::table7(a);
            let n = rows.len() as u64;
            (rows, n)
        });
        let t8 = t.span("core.tables.table8", |_| {
            let rows = tables::table8(a);
            let n = rows.len() as u64;
            (rows, n)
        });
        let headline = t.span("core.tables.headline", |_| (tables::headline(a), 1));
        ((overview, t2, t3, t4, t5, t6, t7, t8, headline), 9)
    });
    let figs = t.span("core.figures", |t| {
        macro_rules! fig {
            ($name:literal, $f:expr) => {
                t.span(concat!("core.figures.", $name), |_| (black_box($f(a)), 1))
            };
        }
        fig!("fig3", figures::fig3);
        let fig4 = fig!("fig4", figures::fig4);
        fig!("fig5", figures::fig5);
        fig!("fig7a", figures::fig7a);
        let fig7b = fig!("fig7b", figures::fig7b);
        fig!("fig8", figures::fig8);
        fig!("fig9", figures::fig9);
        fig!("fig10", figures::fig10);
        let fig11 = fig!("fig11", figures::fig11);
        let fig12 = fig!("fig12", figures::fig12);
        let fig13 = fig!("fig13", figures::fig13);
        fig!("fig14", figures::fig14);
        let fig15 = fig!("fig15", figures::fig15);
        fig!("fig16a", figures::fig16a);
        fig!("fig16b", figures::fig16b);
        let cells = t.span("core.figures.fig17", |_| {
            let cells = figures::fig17(a);
            let n = cells.len() as u64;
            (black_box(cells), n)
        });
        drop(cells);
        ((fig4, fig7b, fig11, fig12, fig13, fig15), 16)
    });
    t.span("core.render.text", |_| {
        let ((initial, full), t2, t3, t4, t5, t6, t7, t8, headline) = &tables;
        let (fig4, fig7b, fig11, fig12, fig13, fig15) = &figs;
        let mut text = vec![
            render::render_overview("initial 12 weeks", initial),
            render::render_overview("full period", full),
            render::render_table2(t2),
            render::render_table3(t3),
            render::render_table4(t4),
            render::render_table5(t5),
            render::render_table6(t6),
            render::render_table7(t7),
            render::render_table8(t8),
            render::render_headline(headline),
            render::render_growth(fig4),
            render::render_taxonomy(fig7b),
            render::render_biweekly(fig11),
            render::render_taxonomy(fig15),
        ];
        for m in [&fig12.0, &fig12.1, fig13].into_iter().flatten() {
            text.push(render::render_nibbles(m, 16));
        }
        let n = text.len() as u64;
        (black_box(text), n)
    });
}

/// The packet layer alone over `path`: walk records, then parse each.
fn packet_layer(t: &mut Tracer, path: &std::path::Path, counters: &mut Counters) -> Res<()> {
    t.try_span("packet", |t| {
        let mapped = t.span("packet.pcap_walk", |_| (MappedPcap::open(path), 0));
        let mapped = mapped.map_err(|e| e.to_string())?;
        let mut reader = mapped.reader().map_err(|e| e.to_string())?;
        let (mut records, mut skipped) = (0u64, 0u64);
        let mut views = Vec::new();
        loop {
            let got = t.span("packet.pcap_walk", |_| {
                let got = reader.next_chunk(CHUNK_RECORDS, &mut views);
                (got, views.len() as u64)
            });
            if !got {
                break;
            }
            let parsed = t.span("packet.parse", |_| {
                let mut ok = 0u64;
                for v in &views {
                    if let ViewOutcome::Record(r) = v {
                        if black_box(ParsedView::parse(r.data)).is_ok() {
                            ok += 1;
                        }
                    }
                }
                (ok, ok)
            });
            let chunk_records = views
                .iter()
                .filter(|v| matches!(v, ViewOutcome::Record(_)))
                .count() as u64;
            records += chunk_records;
            skipped += (views.len() as u64 - chunk_records) + (chunk_records - parsed);
        }
        counters.insert("packet.records", records as f64);
        counters.insert("packet.bytes", mapped.data().len() as f64);
        counters.insert("packet.skipped", skipped as f64);
        Ok::<_, String>(((), records))
    })
}

fn analyze_pcap(b: &Bench, t: &mut Tracer, tally: &mut Tally, counters: &mut Counters) -> Res<()> {
    let p = b.pcaps();
    let threads = b.threads;
    let base = empty_result(p, p.t2_prefix)?;
    t.try_span("analyze_pcap", |t| {
        let out = t.span("core.pipeline.run", |_| {
            let res = Pipeline::from_pcaps([&p.t2])
                .prefix(p.t2_prefix)
                .threads(threads)
                .chunk_records(CHUNK_RECORDS)
                .run_detailed();
            (res, p.t2_records as u64)
        });
        let out = out.map_err(err)?;
        let report = t.span("core.serve.analysis_report", |_| {
            (analysis_report(&out.analyzed, &out.stats, false), 1)
        });
        tally.record(
            Some(&report) == b.refs.t2.as_ref(),
            "analyze_pcap replay: report differs from the reference",
        );
        let sessions = out.analyzed.sessions128(TelescopeId::T1);
        t.span("analysis.profile_scanners", |_| {
            let profiles = profile_scanners(sessions);
            let n = profiles.len() as u64;
            (black_box(profiles), n)
        });
        let (want_packets, want_sessions) =
            (out.analyzed.capture(TelescopeId::T1).len(), sessions.len());
        drop(out);

        packet_layer(t, &p.t2, counters)?;

        // The ingest re-composed: feed chunks, sessionize, index push,
        // finalize — the calls the pcap pipeline makes per chunk.
        let (capture, s128, peak) = t.try_span("core.pipeline.replay", |t| {
            let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
            let mut feed = PcapFeed::new(
                Capture::new(passive_config(p.t2_prefix)),
                [&p.t2],
                CHUNK_RECORDS,
            );
            let mut consumer = Consumer::new();
            loop {
                let chunk = t.span("telescope.feed", |_| {
                    let chunk = feed.next_chunk();
                    let n = chunk.as_ref().map_or(0, |c| c.range.len() as u64);
                    (chunk, n)
                });
                let chunk = chunk.map_err(|e| e.to_string())?;
                consumer.consume(t, feed.capture(), chunk.range.clone(), &compiled);
                if chunk.end_of_feed {
                    break;
                }
            }
            let (capture, _, _) = feed.finish();
            let (a, s64, shard, peak) = consumer.finish();
            let mut result = base;
            let n128 = a.len();
            result.captures.insert(TelescopeId::T1, capture);
            let mut fed = BTreeMap::new();
            fed.insert(TelescopeId::T1, (a, s64, shard));
            black_box(finalize(t, &result, fed, threads));
            let capture = result.captures.remove(&TelescopeId::T1).expect("inserted");
            Ok::<_, String>(((capture, n128, peak), p.t2_records as u64))
        })?;
        tally.record(
            capture.len() == want_packets && s128 == want_sessions,
            "analyze_pcap replay: re-composed ingest differs from the pipeline",
        );
        counters.insert(
            "telescope.filter_keep_ratio",
            capture.len() as f64 / p.t2_records as f64,
        );
        counters.insert("telescope.sessions128", s128 as f64);
        counters.insert("telescope.peak_open", peak as f64);
        Ok::<_, String>(((), p.t2_records as u64))
    })
}

fn shard_merge(b: &Bench, t: &mut Tracer, tally: &mut Tally, counters: &mut Counters) -> Res<()> {
    let p = b.pcaps();
    let threads = b.threads;
    t.try_span("shard_merge", |t| {
        t.span("core.shardfile.scatter", |_| {
            for (piece, shard) in p.pieces.iter().zip(&p.shards) {
                let res = Pipeline::from_pcaps([piece])
                    .prefix(p.t2_prefix)
                    .threads(threads)
                    .chunk_records(CHUNK_RECORDS)
                    .to_shard(shard);
                if let Err(e) = res {
                    return (Err(err(e)), 0);
                }
            }
            (Ok(()), p.shards.len() as u64)
        })?;
        let mut total_bytes = 0u64;
        for path in &p.shards {
            let bytes = t.span("core.shardfile.read", |_| {
                let bytes = std::fs::read(path);
                let n = bytes.as_ref().map_or(0, |b| b.len() as u64);
                (bytes, n)
            });
            let bytes = bytes.map_err(|e| format!("{}: {e}", path.display()))?;
            total_bytes += bytes.len() as u64;
            let n = bytes.len() as u64;
            let shard = t.span("core.shardfile.decode", |_| (decode_shard(&bytes), n));
            let shard = shard.map_err(|e| format!("{}: {e}", path.display()))?;
            let encoded = t.span("core.shardfile.encode", |_| (encode_shard(&shard), n));
            tally.record(
                encoded == bytes,
                "shard_merge replay: decode→encode is not canonical",
            );
        }
        counters.insert("core.shardfile.bytes", total_bytes as f64);
        let out = t.span("core.shardfile.gather", |_| {
            let res = Pipeline::from_shards(&p.shards)
                .threads(threads)
                .run_detailed();
            (res, p.shards.len() as u64)
        });
        let out = out.map_err(err)?;
        let report = t.span("core.serve.analysis_report", |_| {
            (analysis_report(&out.analyzed, &out.stats, false), 1)
        });
        tally.record(
            Some(&report) == b.refs.t2.as_ref(),
            "shard_merge replay: report differs from the reference",
        );
        Ok::<_, String>(((), p.t2_records as u64))
    })
}

/// Span names the serve replay times per checkpoint, for
/// `core.serve.checkpoint_unattributed_ms`.
pub const SERVE_REPLAYED: [&str; 2] = ["telescope.tail_next_chunk", "core.serve.analysis_report"];

fn serve_tail(b: &Bench, t: &mut Tracer, tally: &mut Tally, counters: &mut Counters) -> Res<()> {
    let p = b.pcaps();
    let input = &p.serve;
    let live = b.work.path().join("replay-live.pcap");
    crate::inputs::write(&live, &input.data[..input.header_len])?;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&live)
        .map_err(|e| e.to_string())?;
    let compiled = CompiledVisibility::compile(&Visibility::from_events(&[]));
    let mut feed = TailFeed::new(
        Capture::new(passive_config(p.t1_prefix)),
        &live,
        usize::MAX,
        SESSION_TIMEOUT,
    )
    .poll_interval(Duration::from_millis(1))
    .quiesce_after(Duration::from_secs(30));
    let mut consumer = Consumer::new();
    t.try_span("serve_tail", |t| {
        let mut last = String::new();
        for (k, range) in input.batches.iter().enumerate() {
            file.write_all(&input.data[range.clone()])
                .and_then(|()| file.flush())
                .map_err(|e| e.to_string())?;
            let target = input.batch_records * (k + 1);
            // The wrapper result is glue, made outside the checkpoint span.
            let mut result = empty_result(p, p.t1_prefix)?;
            last = t.try_span("core.serve.checkpoint", |t| {
                while feed.capture().len() < target {
                    let chunk = t.span("telescope.tail_next_chunk", |_| {
                        let chunk = feed.next_chunk();
                        let n = chunk.as_ref().map_or(0, |c| c.range.len() as u64);
                        (chunk, n)
                    });
                    let chunk = chunk.map_err(|e| e.to_string())?;
                    consumer.consume(t, feed.capture(), chunk.range.clone(), &compiled);
                    if chunk.end_of_feed {
                        return Err("tail feed ended early".to_string());
                    }
                }
                let capture = feed.capture();
                let analyzed = t.span("core.corpus.from_result", |_| {
                    result.captures.insert(
                        TelescopeId::T1,
                        Capture::restore(
                            capture.config().clone(),
                            capture.packets().to_vec(),
                            capture.filtered(),
                            capture.malformed(),
                        ),
                    );
                    (Analyzed::from_result(result), target as u64)
                });
                let report = t.span("core.serve.analysis_report", |_| {
                    (analysis_report(&analyzed, &feed.stats(), false), 1)
                });
                Ok((report, 1))
            })?;
        }
        tally.record(
            Some(&last) == b.refs.t1.as_ref(),
            "serve_tail replay: last checkpoint differs from the reference",
        );
        counters.insert("telescope.peak_open", consumer.peak_open() as f64);
        Ok::<_, String>(((), input.records() as u64))
    })
}
