//! Benchmark inputs: a private work directory per invocation, the
//! simulator's captures written by the shipped `sixscope run`, relabeled
//! by the seed, and the pieces and batches cut from them. Everything here is the benchmark's
//! own preparation and is excluded from every metric.

use sixscope::sim::ScenarioConfig;
use sixscope::types::Ipv6Prefix;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

pub type Res<T> = Result<T, String>;

/// Directory holding every per-invocation work directory, relative to the
/// checkout root the benchmark runs from.
const WORK_ROOT: &str = ".perfbench-tmp";

/// A work directory unique to this invocation (pid plus counter), removed
/// with everything in it when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> Res<WorkDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = Path::new(WORK_ROOT).join(name);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        // Absolute, so the daemon's memory map of the live file can be
        // recognised in /proc.
        let path = path
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(root) = self.path.parent() {
            // Only succeeds once no other invocation is using it.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Population scales of the two input families.
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// `repro`: the canonical EXPERIMENTS.md scale.
    pub repro: f64,
    /// The simulated captures behind the pcap workloads.
    pub pcap: f64,
}

pub const CANONICAL: Scales = Scales {
    repro: 0.04,
    pcap: 0.1,
};

/// Tiny scales for the held-out-seed smoke run.
pub const SMOKE: Scales = Scales {
    repro: 0.02,
    pcap: 0.01,
};

/// Record pieces handed to `shard_merge` workers.
pub const SHARD_PIECES: usize = 4;

/// Equal record batches the `serve_tail` writer appends.
pub const SERVE_BATCHES: usize = 16;

/// Record boundaries of a classic pcap file: the global header length and
/// the start offset of every record, followed by the file length.
struct Layout {
    header: usize,
    bounds: Vec<usize>,
}

impl Layout {
    fn of(data: &[u8]) -> Res<Layout> {
        let big_endian = match data.get(..4) {
            Some([0xd4, 0xc3, 0xb2, 0xa1] | [0x4d, 0x3c, 0xb2, 0xa1]) => false,
            Some([0xa1, 0xb2, 0xc3, 0xd4] | [0xa1, 0xb2, 0x3c, 0x4d]) => true,
            _ => return Err("not a classic pcap file".into()),
        };
        const HEADER: usize = 24;
        let mut bounds = Vec::new();
        let mut off = HEADER;
        while off < data.len() {
            let field = data
                .get(off + 8..off + 12)
                .ok_or("pcap ends inside a record header")?;
            let field: [u8; 4] = field.try_into().expect("four bytes");
            let incl = if big_endian {
                u32::from_be_bytes(field)
            } else {
                u32::from_le_bytes(field)
            } as usize;
            bounds.push(off);
            off += 16 + incl;
        }
        if off != data.len() {
            return Err("pcap ends inside a record body".into());
        }
        bounds.push(off);
        Ok(Layout {
            header: HEADER,
            bounds,
        })
    }

    fn records(&self) -> usize {
        self.bounds.len() - 1
    }

    /// XORs the interface identifier (low 64 bits) of every record's IPv6
    /// source address with `key`: a bijection on sources that keeps every
    /// /64, every session and every destination, so the traffic — and the
    /// work of analysing it — is the same while the bytes, source keys,
    /// hash layouts and report order are the seed's own. Transport
    /// checksums are not enforced by the parser, so they are left as is.
    fn relabel_sources(&self, data: &mut [u8], key: u64) {
        const IID: std::ops::Range<usize> = 16 + 16..16 + 24;
        for w in self.bounds.windows(2) {
            let record = &mut data[w[0]..w[1]];
            if record.len() >= 16 + 40 && record[16] >> 4 == 6 {
                let iid = &mut record[IID];
                let x = u64::from_be_bytes(iid.try_into().expect("eight bytes")) ^ key;
                iid.copy_from_slice(&x.to_be_bytes());
            }
        }
    }
}

/// The relabeling key of `seed` (SplitMix64 finaliser), never zero.
fn relabel_key(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)).max(1)
}

/// The live input of `serve_tail`: the T1 capture cut into equal batches.
pub struct ServeInput {
    /// The whole served file (global header plus every batch).
    pub data: Vec<u8>,
    pub header_len: usize,
    /// Byte range of each batch within `data`.
    pub batches: Vec<std::ops::Range<usize>>,
    /// Records per batch (the daemon's `--snapshot-every`).
    pub batch_records: usize,
}

impl ServeInput {
    pub fn records(&self) -> usize {
        self.batch_records * self.batches.len()
    }
}

/// Inputs of the pcap workloads, all derived from one simulated run.
pub struct PcapInputs {
    /// T2 capture (`analyze_pcap`, and split for `shard_merge`).
    pub t2: PathBuf,
    pub t2_prefix: Ipv6Prefix,
    pub t2_records: usize,
    pub t2_bytes: usize,
    /// T2 split into [`SHARD_PIECES`] record ranges.
    pub pieces: Vec<PathBuf>,
    /// Where each piece's shard file is written.
    pub shards: Vec<PathBuf>,
    /// The T1 capture truncated to whole serve batches: the file the
    /// daemon ends up tailing, and the input of its reference report.
    pub t1: PathBuf,
    pub t1_prefix: Ipv6Prefix,
    pub serve: ServeInput,
    /// A capture holding only the global header.
    pub empty: PathBuf,
}

/// Runs `sixscope run --pcap-dir` on the scenario, relabels its T1/T2
/// captures by `seed` and cuts them into the pcap workloads' inputs.
pub fn prepare_pcaps(
    sixscope: &Path,
    dir: &Path,
    scenario_seed: u64,
    seed: u64,
    scale: f64,
    threads: usize,
) -> Res<PcapInputs> {
    let sim_dir = dir.join("sim");
    simulate_pcaps(sixscope, &sim_dir, scenario_seed, scale, threads)?;
    let read =
        |name: &str| std::fs::read(sim_dir.join(name)).map_err(|e| format!("read {name}: {e}"));
    let (mut t2_data, mut t1_data) = (read("T2.pcap")?, read("T1.pcap")?);
    let _ = std::fs::remove_dir_all(&sim_dir);
    let (t2_layout, t1_layout) = (Layout::of(&t2_data)?, Layout::of(&t1_data)?);
    let key = relabel_key(seed);
    t2_layout.relabel_sources(&mut t2_data, key);
    t1_layout.relabel_sources(&mut t1_data, key);
    let layout = ScenarioConfig::new(scenario_seed, scale).layout;

    let n = t2_layout.records();
    let t2 = dir.join("T2.pcap");
    write(&t2, &t2_data)?;
    let mut pieces = Vec::new();
    let mut shards = Vec::new();
    for i in 0..SHARD_PIECES {
        let (a, b) = (i * n / SHARD_PIECES, (i + 1) * n / SHARD_PIECES);
        let path = dir.join(format!("T2-piece{i}.pcap"));
        let mut bytes = t2_data[..t2_layout.header].to_vec();
        bytes.extend_from_slice(&t2_data[t2_layout.bounds[a]..t2_layout.bounds[b]]);
        write(&path, &bytes)?;
        pieces.push(path);
        shards.push(dir.join(format!("T2-piece{i}.sixshard")));
    }
    let empty = dir.join("empty.pcap");
    write(&empty, &t2_data[..t2_layout.header])?;

    let batch_records = t1_layout.records() / SERVE_BATCHES;
    if batch_records == 0 {
        return Err("T1 capture has fewer records than serve batches".into());
    }
    let batches: Vec<_> = (0..SERVE_BATCHES)
        .map(|k| t1_layout.bounds[k * batch_records]..t1_layout.bounds[(k + 1) * batch_records])
        .collect();
    let end = batches.last().expect("at least one batch").end;
    let serve = ServeInput {
        data: t1_data[..end].to_vec(),
        header_len: t1_layout.header,
        batches,
        batch_records,
    };
    let t1 = dir.join("T1-served.pcap");
    write(&t1, &serve.data)?;

    Ok(PcapInputs {
        t2,
        t2_prefix: layout.t2,
        t2_records: n,
        t2_bytes: t2_data.len(),
        pieces,
        shards,
        t1,
        t1_prefix: layout.t1,
        serve,
        empty,
    })
}

/// Writes one pcap per telescope with the shipped `sixscope run`.
fn simulate_pcaps(sixscope: &Path, dir: &Path, seed: u64, scale: f64, threads: usize) -> Res<()> {
    let log_path = dir.with_extension("log");
    let log = std::fs::File::create(&log_path).map_err(|e| e.to_string())?;
    let status = Command::new(sixscope)
        .args([
            "run",
            "--seed",
            &seed.to_string(),
            "--scale",
            &scale.to_string(),
        ])
        .arg("--pcap-dir")
        .arg(dir)
        .args(["--threads", &threads.to_string()])
        .env("SIXSCOPE_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .status()
        .map_err(|e| format!("spawn {}: {e}", sixscope.display()))?;
    if !status.success() {
        return Err(format!(
            "sixscope run failed ({status}); see {}",
            log_path.display()
        ));
    }
    Ok(())
}

/// Writes `bytes` to `path` and waits until they are on disk, so no
/// write-back of the benchmark's own inputs overlaps a measurement.
pub fn write(path: &Path, bytes: &[u8]) -> Res<()> {
    use std::io::Write;
    let mut file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("write {}: {e}", path.display()))
}
