//! On-disk persistence for the fitness memo: spill shards at checkpoint
//! cadence, warm-start at boot.
//!
//! The per-layer memo's keys are already stable across processes
//! ([`digamma_costmodel::cachekey`], versioned via `KEY_VERSION`), so a
//! restarted `digamma-netd` can keep its accumulated *cost-model* work —
//! not just its jobs — by writing `(key, LayerCost)` pairs to a text
//! file and reloading them at startup. Format (built on
//! [`crate::textio`]):
//!
//! ```text
//! [fitness-memo]
//! version = 2            # this file format
//! key_version = 1        # digamma_costmodel::cachekey::KEY_VERSION
//! count = 2
//!
//! [entry]
//! crc = 16 hex digits    # FNV-1a of the entry without this line
//! key = 16-hex stable cache key
//! latency_cycles = 16-hex f64 bits        # every f64 is bit-exact
//! energy_pj = 16-hex f64 bits
//! buf_l2_words = 4096
//! buf_mid_words =        # empty for 2-level mappings
//! buf_l1_words = 96
//! ```
//!
//! Version 1 files carried the whole per-layer report (breakdown,
//! traffic, derived hardware); they now load as a cold start.
//!
//! Robustness contract:
//!
//! * **bit-exact round-trip** — every `f64` travels as its IEEE-754 bit
//!   pattern; a reloaded cost compares equal to the bit,
//! * **versioned** — a `version` or `key_version` mismatch discards the
//!   whole file (stale keys must never alias a new cost model),
//! * **sealed** — each `[entry]` carries the journal's record checksum
//!   ([`crate::textio`]'s `seal`), so a flipped digit that still parses
//!   is caught instead of warming the cache with a wrong cost,
//! * **corrupt-tolerant** — an `[entry]` whose checksum is missing or
//!   wrong, or whose fields are missing or malformed, is skipped
//!   (counted, not fatal), so a partially damaged file still warms the
//!   cache with its intact entries; an unreadable or unparsable file
//!   degrades to a cold start, never a crash.
//!
//! `tests/corruption.rs` property-tests the contract against truncated
//! and bit-flipped documents.

use crate::textio::{
    f64_from_text, f64_to_text, parse_sections, record_crc, render_sections, seal, Section,
    TextError,
};
use digamma_costmodel::{cachekey::KEY_VERSION, BufferRequirement, LayerCost};
use digamma_obs::{FailAction, FailSet};
use std::io::Write as _;
use std::path::Path;

/// Current spill-file format version.
pub const CACHE_FILE_VERSION: u64 = 2;

/// What a load reports back (for logs and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLoad {
    /// Entries parsed and usable.
    pub loaded: usize,
    /// Malformed or unsealed `[entry]` sections skipped.
    pub skipped: usize,
}

fn render_entry(key: u64, cost: &LayerCost) -> Section {
    let mut s = Section::new("entry");
    s.push("key", format!("{key:016x}"));
    s.push("latency_cycles", f64_to_text(cost.latency_cycles));
    s.push("energy_pj", f64_to_text(cost.energy_pj));
    s.push("buf_l2_words", cost.buffers.l2_words.to_string());
    s.push(
        "buf_mid_words",
        cost.buffers.mid_words_per_unit.map(|w| w.to_string()).unwrap_or_default(),
    );
    s.push("buf_l1_words", cost.buffers.l1_words_per_pe.to_string());
    seal(s)
}

/// A required scalar: unlike `get_parsed_or`, a missing or unparsable
/// field is an error — within an `[entry]` every field is always
/// rendered, so absence means corruption and the entry must be skipped,
/// never filled with a default that would silently poison evaluations.
fn require_parsed<T: std::str::FromStr>(s: &Section, key: &str) -> Result<T, TextError> {
    s.require(key)?.parse().map_err(|_| TextError::new(format!("bad `{key}` in [entry]")))
}

fn parse_entry(s: &Section) -> Result<(u64, LayerCost), TextError> {
    if s.get("crc") != Some(record_crc(s).as_str()) {
        return Err(TextError::new("[entry] crc is missing or does not match"));
    }
    let key = u64::from_str_radix(s.require("key")?, 16)
        .map_err(|_| TextError::new("bad entry key (need 16 hex digits)"))?;
    let mid_words_per_unit = match s.require("buf_mid_words")? {
        "" => None,
        _ => Some(require_parsed(s, "buf_mid_words")?),
    };
    let cost = LayerCost {
        latency_cycles: f64_from_text(s.require("latency_cycles")?)?,
        energy_pj: f64_from_text(s.require("energy_pj")?)?,
        buffers: BufferRequirement {
            l2_words: require_parsed(s, "buf_l2_words")?,
            mid_words_per_unit,
            l1_words_per_pe: require_parsed(s, "buf_l1_words")?,
        },
    };
    Ok((key, cost))
}

/// Renders a full spill document for the given memo entries.
pub fn render_cache_file(entries: &[(u64, LayerCost)]) -> String {
    let mut head = Section::new("fitness-memo");
    head.push("version", CACHE_FILE_VERSION.to_string());
    head.push("key_version", KEY_VERSION.to_string());
    head.push("count", entries.len().to_string());
    let mut sections = vec![head];
    sections.extend(entries.iter().map(|(key, cost)| render_entry(*key, cost)));
    render_sections(&sections)
}

/// Parses a spill document. A header mismatch (wrong format or key
/// version) yields zero entries; malformed or unsealed `[entry]`
/// sections are skipped and counted.
///
/// # Errors
///
/// Returns [`TextError`] only when the document is not even
/// section-structured text; every finer-grained problem degrades to
/// skipped entries.
pub fn parse_cache_file(text: &str) -> Result<(Vec<(u64, LayerCost)>, CacheLoad), TextError> {
    let sections = parse_sections(text)?;
    let Some(head) = sections.first().filter(|s| s.name == "fitness-memo") else {
        return Err(TextError::new("not a fitness-memo file"));
    };
    let version = head.get_parsed_or("version", 0u64)?;
    let key_version = head.get_parsed_or("key_version", 0u64)?;
    if version != CACHE_FILE_VERSION || key_version != KEY_VERSION {
        // A stale file must never alias into a newer cost model: treat
        // it as empty rather than failing the boot.
        return Ok((Vec::new(), CacheLoad::default()));
    }
    let mut entries = Vec::new();
    let mut load = CacheLoad::default();
    for section in sections.iter().filter(|s| s.name == "entry") {
        match parse_entry(section) {
            Ok(pair) => {
                entries.push(pair);
                load.loaded += 1;
            }
            Err(_) => load.skipped += 1,
        }
    }
    Ok((entries, load))
}

/// Writes `bytes` to `tmp`, fsyncs, then atomically renames onto
/// `path` — the durability discipline every spill and snapshot shares.
/// The rename only ever promotes fully durable bytes, so a kill or
/// power cut at any instant leaves either the old file or the new one,
/// never a truncated hybrid. The named failpoint injects storage
/// faults: `short` tears the tmp write (the old file survives untouched
/// since the rename never runs), `err`/`enospc` fail it outright.
///
/// # Errors
///
/// Returns [`std::io::Error`] from the write, sync, or rename; on any
/// error the previous `path` contents are intact.
pub(crate) fn persist_atomic(
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
    faults: &FailSet,
    point: &str,
) -> std::io::Result<()> {
    let mut file = std::fs::File::create(tmp)?;
    match faults.fired(point) {
        Some(FailAction::Short) => {
            file.write_all(&bytes[..bytes.len() / 2])?;
            let _ = file.sync_all();
            return Err(std::io::Error::other(format!(
                "injected torn write at failpoint {point:?}"
            )));
        }
        Some(action) => {
            if let Some(e) = action.to_io_error(point) {
                return Err(e);
            }
        }
        None => {}
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(tmp, path)
}

/// Atomically writes the spill file (write + fsync + rename, so a
/// failure leaves the previous file intact; the `cache.spill` failpoint
/// injects faults).
///
/// # Errors
///
/// Returns [`std::io::Error`] when the directory is unwritable; the
/// previous spill file, if any, survives every failure.
pub fn write_cache_file(
    path: &Path,
    entries: &[(u64, LayerCost)],
    faults: &FailSet,
) -> std::io::Result<()> {
    let tmp = path.with_extension("cache.tmp");
    persist_atomic(&tmp, path, render_cache_file(entries).as_bytes(), faults, "cache.spill")
}

/// Best-effort load: a missing, unreadable, or corrupt file is a cold
/// start (empty result), never an error.
pub fn read_cache_file(path: &Path) -> (Vec<(u64, LayerCost)>, CacheLoad) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), CacheLoad::default());
    };
    parse_cache_file(&text).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_costmodel::{Evaluator, Mapping, Platform};
    use digamma_workload::{zoo, Layer};

    /// Layers and mappings behind [`sample_entries`]: zoo layers on a
    /// 2-level array plus one 3-level mapping (a middle buffer).
    fn sample_layers() -> Vec<(Layer, Mapping)> {
        let mut pairs = Vec::new();
        for model in [zoo::ncf(), zoo::dlrm()] {
            for u in model.unique_layers().iter().take(3) {
                pairs.push((u.layer.clone(), Mapping::row_major_example(&u.layer, 4, 8)));
            }
        }
        let layer = Layer::conv("deep", 16, 8, 8, 8, 3, 3, 1);
        let m = Mapping::new(vec![
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::K,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([8, 8, 8, 8, 3, 3]),
            },
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::Y,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([4, 8, 4, 8, 3, 3]),
            },
            digamma_costmodel::LevelSpec {
                fanout: 2,
                spatial_dim: digamma_workload::Dim::X,
                order: digamma_workload::Dim::ALL,
                tile: digamma_workload::DimVec([2, 4, 2, 2, 3, 1]),
            },
        ]);
        pairs.push((layer, m));
        pairs
    }

    fn sample_entries() -> Vec<(u64, LayerCost)> {
        let eval = Evaluator::new(Platform::edge());
        sample_layers()
            .iter()
            .map(|(layer, m)| (eval.cache_key(layer, m), eval.layer_cost(layer, m).unwrap()))
            .collect()
    }

    fn assert_cost_bits(a: &LayerCost, b: &LayerCost) {
        assert_eq!(a.latency_cycles.to_bits(), b.latency_cycles.to_bits());
        assert_eq!(a.energy_pj.to_bits(), b.energy_pj.to_bits());
        assert_eq!(a.buffers, b.buffers);
    }

    #[test]
    fn sample_costs_match_the_full_reports() {
        let eval = Evaluator::new(Platform::edge());
        let pairs = sample_layers();
        assert!(pairs.iter().any(|(_, m)| m.levels().len() == 3), "a middle buffer is covered");
        for ((layer, m), (_, cost)) in pairs.iter().zip(sample_entries()) {
            let report = eval.evaluate(layer, m).unwrap();
            let full = LayerCost {
                latency_cycles: report.latency_cycles,
                energy_pj: report.energy_pj,
                buffers: report.buffers,
            };
            assert_cost_bits(&cost, &full);
        }
    }

    #[test]
    fn spill_round_trips_bit_exactly() {
        let entries = sample_entries();
        let text = render_cache_file(&entries);
        let (back, load) = parse_cache_file(&text).unwrap();
        assert_eq!(load.loaded, entries.len());
        assert_eq!(load.skipped, 0);
        assert_eq!(back.len(), entries.len());
        for ((ka, ca), (kb, cb)) in entries.iter().zip(&back) {
            assert_eq!(ka, kb);
            assert_cost_bits(ca, cb);
        }
    }

    #[test]
    fn stale_versions_yield_a_cold_start() {
        let entries = sample_entries();
        let text = render_cache_file(&entries);
        let wrong_key = text.replacen(
            &format!("key_version = {KEY_VERSION}"),
            &format!("key_version = {}", KEY_VERSION + 1),
            1,
        );
        let (back, load) = parse_cache_file(&wrong_key).unwrap();
        assert!(back.is_empty(), "stale key version must discard everything");
        assert_eq!(load, CacheLoad::default());
        let wrong_fmt = text.replacen(
            &format!("version = {CACHE_FILE_VERSION}"),
            &format!("version = {}", CACHE_FILE_VERSION + 1),
            1,
        );
        assert!(parse_cache_file(&wrong_fmt).unwrap().0.is_empty());
    }

    /// A version-1 file as the previous format rendered it. Its
    /// `latency_cycles`, `energy_pj` and `buf_*` lines are exactly the
    /// fields a version-2 entry reads, so only the version bump keeps it
    /// out: it loads as a cold start, not as entries or damage.
    #[test]
    fn version_1_files_load_as_a_cold_start() {
        let v1 = "\
[fitness-memo]
version = 1
key_version = 1
count = 1

[entry]
key = f6f3f4e87db58c3b
latency_cycles = 40b0500000000000
compute_cycles = 4080000000000000
dram_cycles = 40a0500000000000
noc_cycles = 4070500000000000
fill_cycles = 40a0500000000000
total_cycles = 40b0500000000000
bottleneck = dram
energy_pj = 414c26b000000000
area_um2 = 40f220cccccccccd
pe_area_um2 = 40c5e00000000000
hw_fanouts = 4,8
hw_l2_words = 16704
hw_mid_words = 
hw_l1_words = 560
buf_l2_words = 16704
buf_mid_words = 
buf_l1_words = 560
traffic = 64,256,16384,0,64,256,16384,0
utilization = 3ff0000000000000
macs = 16384
";
        let (back, load) = parse_cache_file(v1).unwrap();
        assert!(back.is_empty());
        assert_eq!(load, CacheLoad::default(), "a stale format is not counted as damage");
    }

    /// Flipping the low bit of one hex digit leaves a well-formed `f64`
    /// (here latency 4176 would read back as 4176.000000000001); only the
    /// entry checksum can tell.
    #[test]
    fn a_one_bit_flip_in_a_cost_is_skipped_not_loaded() {
        let entries = sample_entries();
        let text = render_cache_file(&entries[..1]);
        let line = text.lines().find(|l| l.starts_with("latency_cycles = ")).unwrap();
        let (prefix, last) = line.split_at(line.len() - 1);
        let digit = u8::from_str_radix(last, 16).unwrap() ^ 1;
        let flipped = text.replacen(line, &format!("{prefix}{digit:x}"), 1);
        assert_ne!(flipped, text);
        let (back, load) = parse_cache_file(&flipped).unwrap();
        assert!(back.is_empty(), "the flipped entry must not load: {back:?}");
        assert_eq!(load, CacheLoad { loaded: 0, skipped: 1 });
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let entries = sample_entries();
        let mut text = render_cache_file(&entries);
        // Damage one entry's latency field beyond recognition.
        text = text.replacen("latency_cycles = ", "latency_cycles = zz", 1);
        let (back, load) = parse_cache_file(&text).unwrap();
        assert_eq!(load.skipped, 1, "the damaged entry is skipped");
        assert_eq!(back.len(), entries.len() - 1, "intact entries survive");
    }

    #[test]
    fn missing_fields_skip_the_entry_never_default() {
        // A lost line must skip the whole entry — defaulting (e.g. a
        // buffer size to 0 or MAX) would warm-start the cache with a
        // cost that silently poisons every search touching that key.
        // The checksum convicts a dropped line; a dropped line under a
        // recomputed checksum must fail the field checks instead.
        let entries = sample_entries();
        let rendered = render_cache_file(&entries);
        for victim in [
            "crc",
            "key",
            "latency_cycles",
            "energy_pj",
            "buf_l2_words",
            "buf_mid_words",
            "buf_l1_words",
        ] {
            // Resealing would restore a dropped crc: never reseal that one.
            for reseal in [false, victim != "crc"] {
                let mut sections = parse_sections(&rendered).unwrap();
                let entry = &mut sections[1];
                entry.entries.retain(|(k, _)| k != victim);
                if reseal {
                    entry.entries.retain(|(k, _)| k != "crc");
                    *entry = seal(entry.clone());
                }
                let (back, load) = parse_cache_file(&render_sections(&sections)).unwrap();
                assert_eq!(load.skipped, 1, "missing {victim} (resealed: {reseal})");
                assert_eq!(back.len(), entries.len() - 1, "missing {victim}");
            }
        }
    }

    #[test]
    fn unreadable_files_degrade_to_cold_start() {
        let dir = std::env::temp_dir().join(format!("digamma-cachefile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        // Missing file.
        assert_eq!(read_cache_file(&path).0.len(), 0);
        // Garbage file.
        std::fs::write(&path, "not a cache at all = [[[").unwrap();
        assert_eq!(read_cache_file(&path).0.len(), 0);
        // Real file round-trips through disk.
        let entries = sample_entries();
        write_cache_file(&path, &entries, &FailSet::new()).unwrap();
        let (back, load) = read_cache_file(&path);
        assert_eq!(load.loaded, entries.len());
        assert_eq!(back.len(), entries.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_storage_faults_never_clobber_the_previous_spill() {
        let dir =
            std::env::temp_dir().join(format!("digamma-cachefile-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fitness-memo.cache");
        let entries = sample_entries();
        write_cache_file(&path, &entries, &FailSet::new()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        let faults = FailSet::new();
        faults.configure("cache.spill=enospc,once").unwrap();
        let err = write_cache_file(&path, &entries, &faults).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC must surface as the real errno");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good, "old spill intact");

        faults.configure("cache.spill=short,once").unwrap();
        assert!(write_cache_file(&path, &entries, &faults).is_err(), "torn write reports");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good, "torn tmp never promoted");

        // Disarmed again, the write goes through.
        faults.clear();
        write_cache_file(&path, &entries, &faults).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
