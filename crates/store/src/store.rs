//! The [`ArtifactStore`]: a sharded, content-addressed on-disk cache.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   store.meta.json            # {"schema":"snet-store-meta/1","generation":G}
//!   objects/<hh>/<hash64>.art  # hh = first two hex chars of the hash
//!   quarantine/                # corrupt entries, moved aside, never fatal
//! ```
//!
//! Each `.art` entry is a one-line JSON header followed by the raw
//! payload bytes:
//!
//! ```text
//! {"schema":"snet-store-entry/1","hash":"…","kind":"verdict","generation":3,"len":412,"checksum":"a1b2…"}
//! <payload: exactly `len` bytes>
//! ```
//!
//! The payload is stored verbatim, so a cache hit can hand back the
//! exact bytes the cold run produced — byte-identical verdicts are a
//! store guarantee, not an accident.
//!
//! ## Durability and corruption
//!
//! Writes are crash-safe: the entry is written to a hidden temp file in
//! the same shard directory, fsynced, then atomically renamed into
//! place. [`ArtifactStore::get`] reads the whole entry into memory with
//! one `read` and checks it there; readers that find a malformed header,
//! a length mismatch, or a failing FNV-1a checksum move the entry to
//! `quarantine/` and report a miss — corruption costs a recompute, never
//! an abort. A read that fails midway is an I/O error, which is also a
//! miss (a memory-mapped file that shrinks under its reader would kill
//! the process with `SIGBUS` instead).
//!
//! ## Eviction
//!
//! Every [`ArtifactStore::open`] bumps the store generation; entries are
//! stamped with the generation that wrote them. [`ArtifactStore::gc`]
//! evicts oldest-generation entries first (ties broken by hash) until
//! the store fits the byte budget — a cheap LRU at run granularity.
//!
//! ## Concurrency
//!
//! The store never assumed a single owner for *reads* (atomic renames
//! mean readers see old or new, never torn), and writes are safe from
//! any number of threads and handles: temp-file names carry a
//! process-wide sequence number, so two threads writing the same hash
//! cannot collide, and the last rename wins with both byte-identical.
//! The generation bump in [`ArtifactStore::open`] takes an advisory
//! lock file (`store.meta.lock`), so concurrent opens — across threads
//! *or* processes — each get a distinct generation instead of losing
//! updates. [`ArtifactStore::gc`] tolerates entries vanishing under it
//! (another handle's GC got there first). A long-lived multi-threaded
//! process opens its store once and clones the handle to every worker,
//! so all of them stamp one generation.

use serde::Deserialize;
use snet_core::ir::CanonicalHash;
use snet_core::verdict::Verdict;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of the per-entry header line.
pub const ENTRY_SCHEMA: &str = "snet-store-entry/1";
/// Schema tag of `store.meta.json`.
pub const META_SCHEMA: &str = "snet-store-meta/1";
/// Entry kind for [`Verdict`] artifacts.
pub const KIND_VERDICT: &str = "verdict";
/// Entry kind for transposition-table spills ([`crate::tt`]).
pub const KIND_TT_FACTS: &str = "tt-facts";
/// Longest header line `ls` accepts; written headers are about 200 bytes.
const MAX_HEADER_BYTES: u64 = 4096;

/// FNV-1a 64 over the payload — an integrity check against torn or
/// bit-rotted entries (the content hash already guards identity).
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A store entry read back: header fields plus the verbatim payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredEntry {
    /// The content address the entry is filed under.
    pub hash: CanonicalHash,
    /// Entry kind ([`KIND_VERDICT`], [`KIND_TT_FACTS`], …).
    pub kind: String,
    /// Store generation that wrote the entry.
    pub generation: u64,
    /// The payload bytes, exactly as written.
    pub payload: Vec<u8>,
}

/// Header-only metadata of one entry (no payload), as listed by
/// [`ArtifactStore::ls`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryMeta {
    /// The content address.
    pub hash: CanonicalHash,
    /// Entry kind.
    pub kind: String,
    /// Store generation that wrote the entry.
    pub generation: u64,
    /// Total size on disk (header + payload).
    pub bytes: u64,
    /// Absolute path of the entry file.
    pub path: PathBuf,
}

/// Aggregate store statistics ([`ArtifactStore::stat`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Live entries under `objects/`.
    pub entries: u64,
    /// Bytes of live entries (headers + payloads).
    pub bytes: u64,
    /// Current store generation.
    pub generation: u64,
    /// Verdict entries among `entries`.
    pub verdicts: u64,
    /// TT-spill entries among `entries`.
    pub tt_spills: u64,
    /// Files parked in `quarantine/`.
    pub quarantined: u64,
}

/// What [`ArtifactStore::gc`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: u64,
    /// Entries evicted (oldest generation first).
    pub removed: u64,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Bytes remaining after the sweep.
    pub remaining_bytes: u64,
}

/// A handle to one on-disk store. Cheap to clone (shared root and
/// generation); all methods take `&self` and are safe to use from many
/// threads — writes are atomic renames, readers see old or new, never
/// torn.
#[derive(Clone)]
pub struct ArtifactStore {
    inner: Arc<Inner>,
}

struct Inner {
    root: PathBuf,
    generation: u64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("root", &self.inner.root)
            .field("generation", &self.inner.generation)
            .finish()
    }
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `root` and bumps its
    /// generation. A corrupt meta file, or one whose generation cannot be
    /// bumped, is quarantined and the counter restarts — opening never
    /// fails on bad content, only on I/O.
    ///
    /// The generation read-modify-write runs under the `store.meta.lock`
    /// advisory lock, so concurrent opens of one root (threads or
    /// processes) serialize and each get a distinct generation.
    pub fn open(root: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("objects"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        let meta_path = root.join("store.meta.json");
        let _lock = MetaLock::acquire(&root)?;
        let generation = match read_meta_generation(&meta_path).map(|g| g.checked_add(1)) {
            Ok(Some(g)) => g,
            Err(MetaError::Missing) => 1,
            Ok(None) | Err(MetaError::Corrupt) => {
                quarantine_file(&root, &meta_path);
                1
            }
        };
        let meta = format!("{{\"schema\":\"{META_SCHEMA}\",\"generation\":{generation}}}\n");
        write_atomically(&meta_path, meta.as_bytes())?;
        Ok(ArtifactStore { inner: Arc::new(Inner { root, generation }) })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// The generation stamped on entries written through this handle.
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    fn entry_path(&self, hash: &CanonicalHash) -> PathBuf {
        let hex = hash.to_hex();
        self.inner.root.join("objects").join(&hex[..2]).join(format!("{hex}.art"))
    }

    /// Whether an entry file exists under `hash` (no integrity check —
    /// a `true` here with a failing [`ArtifactStore::get`] means the
    /// entry is corrupt).
    pub fn contains(&self, hash: &CanonicalHash) -> bool {
        self.entry_path(hash).exists()
    }

    /// Looks up `hash`, returning the stored entry on a hit. Counts
    /// `store.hits`/`store.misses`; corrupt entries are quarantined
    /// (counted under `store.quarantined`) and read as a miss.
    pub fn get(&self, hash: &CanonicalHash) -> Option<StoredEntry> {
        let _span = snet_obs::span("store.lookup");
        let Ok(bytes) = std::fs::read(self.entry_path(hash)) else {
            snet_obs::counter("store.misses", 1);
            return None;
        };
        match parse_entry(&bytes, Some(hash)) {
            Ok((meta, payload)) => {
                snet_obs::counter("store.hits", 1);
                snet_obs::counter("store.bytes", payload.len() as u64);
                Some(StoredEntry {
                    hash: *hash,
                    kind: meta.kind,
                    generation: meta.generation,
                    payload: payload.to_vec(),
                })
            }
            Err(_) => {
                snet_obs::counter("store.misses", 1);
                self.quarantine(hash); // reported via counters; reads stay quiet
                None
            }
        }
    }

    /// Moves the entry under `hash` to `quarantine/`, counted under
    /// `store.quarantined`: a damaged entry, or a claim that failed its
    /// re-check.
    pub fn quarantine(&self, hash: &CanonicalHash) {
        snet_obs::counter("store.quarantined", 1);
        quarantine_file(&self.inner.root, &self.entry_path(hash));
        snet_obs::gauge("store.last_quarantine", 1.0);
    }

    /// Looks up a [`Verdict`] by canonical hash. Returns the parsed
    /// verdict together with the stored payload bytes (byte-identical to
    /// what the producing run wrote). Entries of a different kind or an
    /// unparseable verdict schema read as a miss.
    pub fn get_verdict(&self, hash: &CanonicalHash) -> Option<(Verdict, Vec<u8>)> {
        let entry = self.get(hash)?;
        if entry.kind != KIND_VERDICT {
            return None;
        }
        let text = std::str::from_utf8(&entry.payload).ok()?;
        let verdict = Verdict::parse(text).ok()?;
        Some((verdict, entry.payload))
    }

    /// Stores `payload` under `hash` with the given kind. Overwrites any
    /// existing entry (same hash ⇒ same content in practice; the rewrite
    /// refreshes the generation stamp). Crash-safe: temp file + rename.
    /// A failed write is counted under `store.write_errors`.
    pub fn put(&self, hash: &CanonicalHash, kind: &str, payload: &[u8]) -> io::Result<PathBuf> {
        let _span = snet_obs::span("store.put");
        let path = self.entry_path(hash);
        let header = format!(
            "{{\"schema\":\"{ENTRY_SCHEMA}\",\"hash\":\"{}\",\"kind\":\"{kind}\",\
             \"generation\":{},\"len\":{},\"checksum\":\"{:016x}\"}}\n",
            hash.to_hex(),
            self.inner.generation,
            payload.len(),
            fnv1a(payload),
        );
        let mut bytes = Vec::with_capacity(header.len() + payload.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(payload);
        write_atomically(&path, &bytes)
            .inspect_err(|_| snet_obs::counter("store.write_errors", 1))?;
        snet_obs::counter("store.writes", 1);
        snet_obs::counter("store.bytes", payload.len() as u64);
        Ok(path)
    }

    /// Stores a [`Verdict`] under its own canonical hash.
    pub fn put_verdict(&self, verdict: &Verdict) -> io::Result<PathBuf> {
        self.put(&verdict.hash, KIND_VERDICT, verdict.to_json().as_bytes())
    }

    /// Lists every live entry's header metadata, sorted by hash.
    /// Unreadable or corrupt entries are quarantined along the way.
    pub fn ls(&self) -> io::Result<Vec<EntryMeta>> {
        let mut out = Vec::new();
        let objects = self.inner.root.join("objects");
        for shard in read_dir_sorted(&objects)? {
            if !shard.is_dir() {
                continue;
            }
            for path in read_dir_sorted(&shard)? {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !name.ends_with(".art") {
                    continue; // temp files and strangers are not entries
                }
                match read_entry_meta(&path) {
                    Some(meta) => out.push(meta),
                    // Vanished between the directory walk and the read:
                    // a racing GC removed it — not corruption.
                    None if !path.exists() => {}
                    None => {
                        snet_obs::counter("store.quarantined", 1);
                        quarantine_file(&self.inner.root, &path);
                    }
                }
            }
        }
        out.sort_by_key(|e| e.hash);
        Ok(out)
    }

    /// Aggregate statistics (walks the store).
    pub fn stat(&self) -> io::Result<StoreStats> {
        let entries = self.ls()?;
        let mut stats = StoreStats {
            entries: entries.len() as u64,
            generation: self.inner.generation,
            ..StoreStats::default()
        };
        for e in &entries {
            stats.bytes += e.bytes;
            match e.kind.as_str() {
                KIND_VERDICT => stats.verdicts += 1,
                KIND_TT_FACTS => stats.tt_spills += 1,
                _ => {}
            }
        }
        stats.quarantined = read_dir_sorted(&self.inner.root.join("quarantine"))?.len() as u64;
        // Mirror the on-disk footprint into the metrics registry so a
        // long-lived process that stats periodically exports
        // snet_store_disk_bytes / snet_store_disk_entries gauges.
        snet_obs::gauge("store.disk_bytes", stats.bytes as f64);
        snet_obs::gauge("store.disk_entries", stats.entries as f64);
        Ok(stats)
    }

    /// Evicts oldest-generation entries (ties by hash) until the live
    /// entries fit in `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut entries = self.ls()?;
        entries.sort_by_key(|e| (e.generation, e.hash));
        let mut report = GcReport { scanned: entries.len() as u64, ..GcReport::default() };
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        for e in &entries {
            if total <= max_bytes {
                break;
            }
            match std::fs::remove_file(&e.path) {
                Ok(()) => {
                    report.removed += 1;
                    report.freed_bytes += e.bytes;
                }
                // Another handle's GC (or a quarantine) won the race;
                // the bytes are gone either way.
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => return Err(err),
            }
            total = total.saturating_sub(e.bytes);
        }
        report.remaining_bytes = total;
        snet_obs::counter("store.gc.removed", report.removed);
        Ok(report)
    }
}

// ---------------------------------------------------------------------------
// Entry encoding/decoding.
// ---------------------------------------------------------------------------

struct EntryHeader {
    hash: CanonicalHash,
    kind: String,
    generation: u64,
    len: u64,
    checksum: u64,
}

/// Splits and validates an entry's bytes. `expect_hash`, when given,
/// must match the header's hash (a renamed/misfiled entry is corrupt).
fn parse_entry<'a>(
    bytes: &'a [u8],
    expect_hash: Option<&CanonicalHash>,
) -> Result<(EntryHeader, &'a [u8]), String> {
    let nl = bytes.iter().position(|&b| b == b'\n').ok_or_else(|| "no header line".to_string())?;
    let header_text =
        std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8".to_string())?;
    let header = parse_header(header_text)?;
    if let Some(h) = expect_hash {
        if header.hash != *h {
            return Err("entry filed under the wrong hash".to_string());
        }
    }
    let payload = &bytes[nl + 1..];
    if payload.len() as u64 != header.len {
        return Err(format!("payload length {} != header len {}", payload.len(), header.len));
    }
    if fnv1a(payload) != header.checksum {
        return Err("checksum mismatch".to_string());
    }
    Ok((header, payload))
}

/// An entry's header line as written: any key order, the first of
/// repeated keys counts, and other keys are skipped.
#[derive(Deserialize)]
struct HeaderLine {
    schema: String,
    hash: String,
    kind: String,
    generation: u64,
    len: u64,
    checksum: String,
}

fn parse_header(text: &str) -> Result<EntryHeader, String> {
    let line: HeaderLine =
        serde_json::from_str(text).map_err(|e| format!("malformed header: {e}"))?;
    if line.schema != ENTRY_SCHEMA {
        return Err(format!("unrecognized entry schema {:?}", line.schema));
    }
    let hash = CanonicalHash::from_hex(&line.hash).ok_or("malformed hash")?;
    let checksum =
        u64::from_str_radix(&line.checksum, 16).map_err(|_| "malformed checksum".to_string())?;
    Ok(EntryHeader { hash, kind: line.kind, generation: line.generation, len: line.len, checksum })
}

/// Reads just the header line of an entry file and checks the payload
/// length against the file's size — a cheap integrity screen for `ls`,
/// which must not read whole TT spills; `get` verifies the checksum. A
/// header longer than [`MAX_HEADER_BYTES`] is corrupt.
fn read_entry_meta(path: &Path) -> Option<EntryMeta> {
    let file = std::fs::File::open(path).ok()?;
    let size = file.metadata().ok()?.len();
    let mut line = Vec::new();
    io::BufReader::new(file).take(MAX_HEADER_BYTES).read_until(b'\n', &mut line).ok()?;
    if line.pop() != Some(b'\n') {
        return None;
    }
    let header = parse_header(std::str::from_utf8(&line).ok()?).ok()?;
    if size.checked_sub(line.len() as u64 + 1)? != header.len {
        return None;
    }
    // The filename must agree with the header.
    let stem = path.file_stem()?.to_str()?;
    if CanonicalHash::from_hex(stem)? != header.hash {
        return None;
    }
    Some(EntryMeta {
        hash: header.hash,
        kind: header.kind,
        generation: header.generation,
        bytes: size,
        path: path.to_path_buf(),
    })
}

// ---------------------------------------------------------------------------
// Filesystem plumbing.
// ---------------------------------------------------------------------------

/// RAII advisory lock on `<root>/store.meta.lock`, guarding the meta
/// file's read-modify-write. Created with `create_new` (atomic on every
/// platform we build for); a lock older than [`MetaLock::STALE`] is
/// presumed leaked by a crashed holder and stolen — the critical
/// section is two tiny file ops, never legitimately that long.
struct MetaLock {
    path: PathBuf,
}

impl MetaLock {
    const STALE: Duration = Duration::from_secs(10);
    const WAIT: Duration = Duration::from_secs(5);

    fn acquire(root: &Path) -> io::Result<MetaLock> {
        let path = root.join("store.meta.lock");
        let deadline = Instant::now() + MetaLock::WAIT;
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(MetaLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > MetaLock::STALE);
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("{}: advisory lock held too long", path.display()),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for MetaLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Writes `bytes` to `path` crash-safely: temp file in the same
/// directory, fsync, atomic rename. The temp name carries a process-wide
/// sequence number so concurrent writers of the *same* target path never
/// share a temp file — and ends in `.tmp`, never `.art`, so a concurrent
/// `ls` walk cannot mistake a half-written temp for a corrupt entry and
/// quarantine it out from under the rename.
fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().expect("entry paths have a parent");
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{}.{}-{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry"),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

enum MetaError {
    Missing,
    Corrupt,
}

/// `store.meta.json` as written.
#[derive(Deserialize)]
struct MetaFile {
    schema: String,
    generation: u64,
}

fn read_meta_generation(path: &Path) -> Result<u64, MetaError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(MetaError::Missing),
        Err(_) => return Err(MetaError::Corrupt),
    };
    let meta: MetaFile = serde_json::from_str(text.trim()).map_err(|_| MetaError::Corrupt)?;
    if meta.schema != META_SCHEMA {
        return Err(MetaError::Corrupt);
    }
    Ok(meta.generation)
}

/// Moves `path` into `<root>/quarantine/`, keeping the filename and
/// suffixing on collision. Best-effort: failures are swallowed (the
/// next reader will retry; losing the rename only re-reports the same
/// corruption later).
fn quarantine_file(root: &Path, path: &Path) {
    let qdir = root.join("quarantine");
    let _ = std::fs::create_dir_all(&qdir);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
    let mut target = qdir.join(name);
    let mut i = 1u32;
    while target.exists() {
        target = qdir.join(format!("{name}.{i}"));
        i += 1;
    }
    let _ = std::fs::rename(path, &target);
}

/// Directory entries, sorted by name for deterministic iteration; a
/// missing directory reads as empty.
fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    out.sort();
    Ok(out)
}
