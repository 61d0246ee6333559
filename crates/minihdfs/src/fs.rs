//! The in-memory file system: namenode metadata + block storage.

use std::collections::BTreeMap;
use std::sync::Arc;

use sync::RwLock;

use crate::bytes::{Bytes, Text};
use crate::checksum::crc32;
use crate::error::DfsError;

/// One stored block: payload plus placement plus integrity metadata.
#[derive(Debug, Clone)]
struct Block {
    /// The clean payload, text by construction (`write_lines` joins
    /// `&str` records).
    data: Text,
    /// Datanodes holding a replica; the first is the primary.
    replicas: Vec<usize>,
    num_records: usize,
    /// CRC-32 of the payload, written once by `write_lines` and
    /// verified against each replica's bytes on every read.
    checksum: u32,
    /// Per-replica payload override: `None` serves the shared clean
    /// `data`; `Some` holds bytes that diverged from it (planted by
    /// [`MiniDfs::corrupt_replica`]) and will fail verification.
    replica_data: Vec<Option<Bytes>>,
}

impl Block {
    /// The bytes replica slot `r` would serve.
    fn replica_payload(&self, r: usize) -> &[u8] {
        match self.replica_data.get(r).and_then(|d| d.as_ref()) {
            Some(bytes) => bytes,
            None => self.data.as_bytes(),
        }
    }
}

#[derive(Debug, Clone)]
struct File {
    blocks: Vec<Block>,
    total_bytes: usize,
    total_records: usize,
}

/// A lightweight handle describing one block of a file, as returned to
/// readers. Cloning is cheap ([`Text`] is reference counted).
#[derive(Debug, Clone)]
pub struct BlockRef {
    /// Position of the block within its file.
    pub index: usize,
    /// Datanode holding the primary replica — the locality hint used by
    /// the schedulers.
    pub primary_node: usize,
    /// All datanodes holding a replica.
    pub replicas: Vec<usize>,
    /// The verified block payload: UTF-8 text, newline-separated
    /// records.
    pub data: Text,
    /// Number of records (lines) in the block.
    pub num_records: usize,
}

impl BlockRef {
    // Every record of every read passes through these iterators.
    // tidy:alloc-free:start

    /// Iterates over the records (lines) of this block. The read that
    /// produced the handle established that the payload is text, so
    /// this neither fails nor checks the bytes again.
    pub fn lines(&self) -> std::str::Lines<'_> {
        self.data.lines()
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-byte block (never produced by `write_lines`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A whole file's records, borrowed from its verified blocks, as
/// [`MiniDfs::read_all_lines`] returns them. Iterating `&FileLines`
/// yields each line as a `&str` into its block, in file order, without
/// copying it; [`FileLines::len`] is the file's record count, known
/// before any line is split.
#[derive(Debug, Clone)]
pub struct FileLines {
    blocks: Vec<BlockRef>,
    records: usize,
}

impl FileLines {
    /// Number of records in the file.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True for a file with no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The lines in file order.
    pub fn iter(&self) -> Lines<'_> {
        Lines {
            blocks: self.blocks.iter(),
            current: "".lines(),
            remaining: self.records,
        }
    }
}

impl<'a> IntoIterator for &'a FileLines {
    type Item = &'a str;
    type IntoIter = Lines<'a>;

    fn into_iter(self) -> Lines<'a> {
        self.iter()
    }
}

/// The iterator over a [`FileLines`]: each block's lines in turn.
#[derive(Debug, Clone)]
pub struct Lines<'a> {
    blocks: std::slice::Iter<'a, BlockRef>,
    current: std::str::Lines<'a>,
    /// Records not yet yielded; the size hint's lower bound (a record
    /// holding a newline splits in two, so it is not an upper bound).
    remaining: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        loop {
            if let Some(line) = self.current.next() {
                self.remaining = self.remaining.saturating_sub(1);
                return Some(line);
            }
            self.current = self.blocks.next()?.lines();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, None)
    }
}
// tidy:alloc-free:end

/// File-level metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    pub path: String,
    pub num_blocks: usize,
    pub total_bytes: usize,
    pub total_records: usize,
}

/// The mini distributed file system.
///
/// Shareable across threads; all methods take `&self`.
#[derive(Debug, Clone)]
pub struct MiniDfs {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    num_datanodes: usize,
    block_size: usize,
    replication: usize,
    files: RwLock<BTreeMap<String, File>>,
    next_block_seq: RwLock<usize>,
}

impl MiniDfs {
    /// Creates a file system over `num_datanodes` simulated datanodes
    /// with the given block size and replication factor 1.
    pub fn new(num_datanodes: usize, block_size: usize) -> Result<MiniDfs, DfsError> {
        Self::with_replication(num_datanodes, block_size, 1)
    }

    /// Creates a file system with an explicit replication factor
    /// (clamped to the number of datanodes).
    pub fn with_replication(
        num_datanodes: usize,
        block_size: usize,
        replication: usize,
    ) -> Result<MiniDfs, DfsError> {
        if num_datanodes == 0 {
            return Err(DfsError::InvalidConfig("need at least one datanode".into()));
        }
        if block_size == 0 {
            return Err(DfsError::InvalidConfig(
                "block size must be positive".into(),
            ));
        }
        if replication == 0 {
            return Err(DfsError::InvalidConfig(
                "replication must be positive".into(),
            ));
        }
        Ok(MiniDfs {
            inner: Arc::new(Inner {
                num_datanodes,
                block_size,
                replication: replication.min(num_datanodes),
                files: RwLock::new(BTreeMap::new()),
                next_block_seq: RwLock::new(0),
            }),
        })
    }

    /// Number of simulated datanodes.
    pub fn num_datanodes(&self) -> usize {
        self.inner.num_datanodes
    }

    /// Configured block size in bytes.
    pub fn block_size(&self) -> usize {
        self.inner.block_size
    }

    /// Writes a text file from an iterator of records (one line each).
    /// Blocks split at line boundaries once `block_size` is reached, so
    /// no record straddles two blocks (records larger than the block
    /// size get a block of their own).
    ///
    /// # Errors
    /// Fails with [`DfsError::AlreadyExists`] when the path is taken.
    pub fn write_lines<I, S>(&self, path: &str, lines: I) -> Result<FileStat, DfsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        if self.inner.files.read().contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        let mut blocks = Vec::new();
        let mut buf = String::with_capacity(self.inner.block_size + 1024);
        let mut records_in_buf = 0usize;
        let mut total_bytes = 0usize;
        let mut total_records = 0usize;

        let flush = |buf: &mut String, records_in_buf: &mut usize, blocks: &mut Vec<Block>| {
            if buf.is_empty() {
                return;
            }
            let replicas = self.place_block();
            let data = Text::from(std::mem::take(buf));
            let checksum = crc32(data.as_bytes());
            let replica_slots = replicas.len();
            blocks.push(Block {
                data,
                replicas,
                num_records: *records_in_buf,
                checksum,
                replica_data: vec![None; replica_slots],
            });
            *records_in_buf = 0;
        };

        for line in lines {
            let line = line.as_ref();
            buf.push_str(line);
            buf.push('\n');
            records_in_buf += 1;
            total_records += 1;
            total_bytes += line.len() + 1;
            if buf.len() >= self.inner.block_size {
                flush(&mut buf, &mut records_in_buf, &mut blocks);
            }
        }
        flush(&mut buf, &mut records_in_buf, &mut blocks);

        let stat = FileStat {
            path: path.to_string(),
            num_blocks: blocks.len(),
            total_bytes,
            total_records,
        };
        self.inner.files.write().insert(
            path.to_string(),
            File {
                blocks,
                total_bytes,
                total_records,
            },
        );
        Ok(stat)
    }

    /// Round-robin placement over datanodes, with replicas on the
    /// following nodes — the same rack-unaware policy as stock HDFS
    /// without topology information.
    fn place_block(&self) -> Vec<usize> {
        let mut seq = self.inner.next_block_seq.write();
        let primary = *seq % self.inner.num_datanodes;
        *seq += 1;
        (0..self.inner.replication)
            .map(|r| (primary + r) % self.inner.num_datanodes)
            .collect()
    }

    /// True when the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.files.read().contains_key(path)
    }

    /// File metadata.
    ///
    /// # Errors
    /// Fails with [`DfsError::NotFound`] for unknown paths.
    pub fn stat(&self, path: &str) -> Result<FileStat, DfsError> {
        let files = self.inner.files.read();
        let f = files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        Ok(FileStat {
            path: path.to_string(),
            num_blocks: f.blocks.len(),
            total_bytes: f.total_bytes,
            total_records: f.total_records,
        })
    }

    /// All blocks of a file with their placement, in file order.
    ///
    /// Every block's payload is verified against its stored CRC-32
    /// before being handed out. A replica that fails verification is
    /// skipped and the read silently fails over to the next one
    /// (counted on `obs::blocks_failed_over`); the returned
    /// [`BlockRef::primary_node`] is the replica that actually served
    /// the read, so locality hints follow the surviving copy. The clean
    /// payload is text by construction; a diverged replica that still
    /// verifies has its bytes checked for UTF-8 once, here.
    ///
    /// # Errors
    /// Fails with [`DfsError::NotFound`] for unknown paths, with
    /// [`DfsError::CorruptBlock`] when *every* replica of some block
    /// fails verification, and with [`DfsError::NotUtf8`] when the
    /// replica that verifies is not text.
    pub fn blocks(&self, path: &str) -> Result<Vec<BlockRef>, DfsError> {
        let files = self.inner.files.read();
        let f = files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let mut out = Vec::with_capacity(f.blocks.len());
        for (index, b) in f.blocks.iter().enumerate() {
            let served = (0..b.replicas.len()).find(|&r| crc32(b.replica_payload(r)) == b.checksum);
            let Some(r) = served else {
                return Err(DfsError::CorruptBlock {
                    path: path.to_string(),
                    block: index,
                });
            };
            let data = match b.replica_data.get(r).and_then(Option::as_ref) {
                None => b.data.clone(),
                Some(bytes) => Text::try_from(bytes).map_err(|_| DfsError::NotUtf8 {
                    path: path.to_string(),
                    block: index,
                })?,
            };
            if r > 0 {
                obs::block_failed_over();
            }
            out.push(BlockRef {
                index,
                primary_node: b.replicas[r],
                replicas: b.replicas.clone(),
                data,
                num_records: b.num_records,
            });
        }
        Ok(out)
    }

    /// Overwrites replica `replica` of block `block` of `path` with a
    /// bit-flipped copy of its payload, so subsequent reads of that
    /// replica fail checksum verification. A test/chaos hook — real
    /// corruption comes from disk, this one comes from the bench
    /// driver, but the read path cannot tell the difference.
    ///
    /// # Errors
    /// Fails with [`DfsError::NotFound`] for unknown paths and with
    /// [`DfsError::InvalidConfig`] for out-of-range block or replica
    /// indices.
    pub fn corrupt_replica(
        &self,
        path: &str,
        block: usize,
        replica: usize,
    ) -> Result<(), DfsError> {
        let mut files = self.inner.files.write();
        let f = files
            .get_mut(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let b = f.blocks.get_mut(block).ok_or_else(|| {
            DfsError::InvalidConfig(format!("block {block} out of range for {path}"))
        })?;
        if replica >= b.replicas.len() {
            return Err(DfsError::InvalidConfig(format!(
                "replica {replica} out of range for block {block} of {path}"
            )));
        }
        // Flip a byte of the *clean* payload, not whatever the replica
        // currently serves: corrupting an already-corrupt replica must
        // leave it corrupt, never accidentally restore it.
        let mut bad: Vec<u8> = b.data.as_bytes().to_vec();
        match bad.first_mut() {
            Some(byte) => *byte ^= 0xFF,
            // A zero-byte payload cannot exist (write_lines never
            // flushes an empty buffer), but corrupt it anyway by
            // growing it — the CRC still changes.
            None => bad.push(0xFF),
        }
        b.replica_data[replica] = Some(Bytes::from(bad));
        Ok(())
    }

    /// Corrupts every replica of `block`, making it unrecoverable.
    ///
    /// # Errors
    /// Same conditions as [`MiniDfs::corrupt_replica`].
    pub fn corrupt_block(&self, path: &str, block: usize) -> Result<(), DfsError> {
        let replicas = {
            let files = self.inner.files.read();
            let f = files
                .get(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            let b = f.blocks.get(block).ok_or_else(|| {
                DfsError::InvalidConfig(format!("block {block} out of range for {path}"))
            })?;
            b.replicas.len()
        };
        for r in 0..replicas {
            self.corrupt_replica(path, block, r)?;
        }
        Ok(())
    }

    /// Restores every replica of every block of `path` to the clean
    /// payload (undoes [`MiniDfs::corrupt_replica`]).
    ///
    /// # Errors
    /// Fails with [`DfsError::NotFound`] for unknown paths.
    pub fn heal(&self, path: &str) -> Result<(), DfsError> {
        let mut files = self.inner.files.write();
        let f = files
            .get_mut(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        for b in &mut f.blocks {
            for slot in &mut b.replica_data {
                *slot = None;
            }
        }
        Ok(())
    }

    /// Reads the whole file as one borrowed view over its verified
    /// blocks (the serial reader's input; engines read block-wise for
    /// locality). No line is copied: iterating the view splits them out
    /// of the block payloads.
    ///
    /// # Errors
    /// The same as [`MiniDfs::blocks`].
    pub fn read_all_lines(&self, path: &str) -> Result<FileLines, DfsError> {
        let blocks = self.blocks(path)?;
        let records = blocks.iter().map(|b| b.num_records).sum();
        Ok(FileLines { blocks, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs() -> MiniDfs {
        MiniDfs::new(4, 64).unwrap() // tiny blocks to force splitting
    }

    /// The file's lines, copied out of the borrowed view.
    fn read(dfs: &MiniDfs, path: &str) -> Vec<String> {
        let view = dfs.read_all_lines(path).unwrap();
        view.iter().map(str::to_string).collect()
    }

    #[test]
    fn rejects_bad_config() {
        assert!(MiniDfs::new(0, 64).is_err());
        assert!(MiniDfs::new(4, 0).is_err());
        assert!(MiniDfs::with_replication(4, 64, 0).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let dfs = dfs();
        let lines: Vec<String> = (0..100).map(|i| format!("record-{i}")).collect();
        let stat = dfs.write_lines("/data/test.txt", &lines).unwrap();
        assert_eq!(stat.total_records, 100);
        assert!(stat.num_blocks > 1, "64-byte blocks must split 100 lines");
        assert_eq!(read(&dfs, "/data/test.txt"), lines);
    }

    #[test]
    fn blocks_split_at_line_boundaries() {
        let dfs = dfs();
        let lines: Vec<String> = (0..50).map(|i| format!("{i:0>20}")).collect();
        dfs.write_lines("/f", &lines).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        let total: usize = blocks.iter().map(|b| b.num_records).sum();
        assert_eq!(total, 50);
        for b in &blocks {
            // Every block ends with a full record.
            assert!(b.data.ends_with('\n'));
            assert_eq!(b.lines().count(), b.num_records);
        }
    }

    #[test]
    fn placement_is_round_robin() {
        let dfs = dfs();
        let lines: Vec<String> = (0..64).map(|i| format!("{i:0>30}")).collect();
        dfs.write_lines("/f", &lines).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert!(blocks.len() >= 8);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.primary_node, i % 4);
        }
    }

    #[test]
    fn replication_wraps_nodes() {
        let dfs = MiniDfs::with_replication(3, 64, 2).unwrap();
        dfs.write_lines("/f", ["aaaa"]).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(blocks[0].replicas.len(), 2);
        assert_ne!(blocks[0].replicas[0], blocks[0].replicas[1]);
        // Replication clamped to node count.
        let dfs2 = MiniDfs::with_replication(2, 64, 5).unwrap();
        dfs2.write_lines("/f", ["aaaa"]).unwrap();
        assert_eq!(dfs2.blocks("/f").unwrap()[0].replicas.len(), 2);
    }

    #[test]
    fn no_overwrite_and_delete() {
        let dfs = dfs();
        dfs.write_lines("/f", ["x"]).unwrap();
        assert_eq!(
            dfs.write_lines("/f", ["y"]),
            Err(DfsError::AlreadyExists("/f".into()))
        );
        assert!(dfs.exists("/f"));
        assert_eq!(read(&dfs, "/f"), ["x"]);
    }

    #[test]
    fn oversized_record_gets_own_block() {
        let dfs = dfs();
        let big = "z".repeat(500);
        dfs.write_lines("/f", [big.as_str(), "tail"]).unwrap();
        let blocks = dfs.blocks("/f").unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].num_records, 1);
        assert_eq!(blocks[1].lines().next(), Some("tail"));
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let dfs = dfs();
        let stat = dfs.write_lines("/empty", Vec::<String>::new()).unwrap();
        assert_eq!(stat.num_blocks, 0);
        assert_eq!(stat.total_records, 0);
        assert!(dfs.read_all_lines("/empty").unwrap().is_empty());
    }

    #[test]
    fn corrupt_primary_fails_over_to_surviving_replica() {
        let dfs = MiniDfs::with_replication(4, 64, 3).unwrap();
        let lines: Vec<String> = (0..40).map(|i| format!("row-{i:0>16}")).collect();
        dfs.write_lines("/f", &lines).unwrap();
        let clean = dfs.blocks("/f").unwrap();
        // Corrupt the primary replica of block 0: reads must silently
        // serve replica 1 with identical bytes and a shifted hint.
        dfs.corrupt_replica("/f", 0, 0).unwrap();
        let after = dfs.blocks("/f").unwrap();
        assert_eq!(after[0].data, clean[0].data);
        assert_eq!(after[0].primary_node, clean[0].replicas[1]);
        assert_eq!(read(&dfs, "/f"), lines);
        // Corrupt replica 1 too: replica 2 still serves.
        dfs.corrupt_replica("/f", 0, 1).unwrap();
        assert_eq!(read(&dfs, "/f"), lines);
        // All three gone: the read reports the corrupt block.
        dfs.corrupt_replica("/f", 0, 2).unwrap();
        assert_eq!(
            dfs.blocks("/f").unwrap_err(),
            DfsError::CorruptBlock {
                path: "/f".into(),
                block: 0
            }
        );
        // Healing restores the clean payload everywhere.
        dfs.heal("/f").unwrap();
        assert_eq!(read(&dfs, "/f"), lines);
        let healed = dfs.blocks("/f").unwrap();
        assert_eq!(healed[0].primary_node, clean[0].primary_node);
    }

    #[test]
    fn corrupt_block_kills_every_replica() {
        let dfs = MiniDfs::with_replication(3, 64, 2).unwrap();
        dfs.write_lines("/f", ["payload"]).unwrap();
        dfs.corrupt_block("/f", 0).unwrap();
        assert!(matches!(
            dfs.blocks("/f"),
            Err(DfsError::CorruptBlock { block: 0, .. })
        ));
    }

    #[test]
    fn corruption_hooks_validate_indices() {
        let dfs = dfs();
        assert_eq!(
            dfs.corrupt_replica("/missing", 0, 0),
            Err(DfsError::NotFound("/missing".into()))
        );
        dfs.write_lines("/f", ["x"]).unwrap();
        assert!(matches!(
            dfs.corrupt_replica("/f", 9, 0),
            Err(DfsError::InvalidConfig(_))
        ));
        assert!(matches!(
            dfs.corrupt_replica("/f", 0, 5),
            Err(DfsError::InvalidConfig(_))
        ));
        assert!(matches!(
            dfs.corrupt_block("/f", 9),
            Err(DfsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn failover_bumps_obs_counter() {
        std::thread::spawn(|| {
            let dfs = MiniDfs::with_replication(4, 64, 2).unwrap();
            dfs.write_lines("/f", ["some data"]).unwrap();
            let before = obs::thread_snapshot().blocks_failed_over;
            dfs.blocks("/f").unwrap();
            assert_eq!(obs::thread_snapshot().blocks_failed_over, before);
            dfs.corrupt_replica("/f", 0, 0).unwrap();
            dfs.blocks("/f").unwrap();
            assert_eq!(obs::thread_snapshot().blocks_failed_over, before + 1);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn borrowed_view_yields_the_written_lines_in_order() {
        let dfs = MiniDfs::with_replication(4, 64, 2).unwrap();
        let lines: Vec<String> = (0..300)
            .map(|i| format!("{i}\t{}", "y".repeat(i % 7)))
            .collect();
        let stat = dfs.write_lines("/many", &lines).unwrap();
        assert!(stat.num_blocks > 20, "64-byte blocks must split 300 lines");
        let view = dfs.read_all_lines("/many").unwrap();
        assert_eq!(view.len(), 300);
        assert_eq!(view.iter().size_hint(), (300, None));
        assert!(view.iter().eq(&lines));
        // Fail-over from corrupt primaries serves the same lines.
        for b in (0..stat.num_blocks).step_by(3) {
            dfs.corrupt_replica("/many", b, 0).unwrap();
        }
        assert_eq!(read(&dfs, "/many"), lines);
        // An empty file is an empty view.
        dfs.write_lines("/empty", Vec::<String>::new()).unwrap();
        let empty = dfs.read_all_lines("/empty").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().next(), None);
    }

    #[test]
    fn replica_that_verifies_but_is_not_text_fails_the_read() {
        let dfs = MiniDfs::with_replication(4, 64, 2).unwrap();
        dfs.write_lines("/f", ["ok", "fine"]).unwrap();
        // Plant a non-UTF-8 payload on the primary and record its CRC as
        // the block's checksum, so it passes verification.
        let bad = Bytes::from(vec![b'o', b'k', 0xC3, 0x28, b'\n']);
        {
            let mut files = dfs.inner.files.write();
            let b = &mut files.get_mut("/f").unwrap().blocks[0];
            b.checksum = crc32(&bad);
            b.replica_data[0] = Some(bad);
        }
        let err = DfsError::NotUtf8 {
            path: "/f".into(),
            block: 0,
        };
        assert_eq!(dfs.blocks("/f").unwrap_err(), err);
        assert_eq!(dfs.read_all_lines("/f").unwrap_err(), err);
        assert_eq!(err.to_string(), "block 0 of /f: payload is not UTF-8 text");
    }

    #[test]
    fn shared_handle_sees_writes() {
        let dfs = dfs();
        let clone = dfs.clone();
        dfs.write_lines("/shared", ["v"]).unwrap();
        assert!(clone.exists("/shared"));
    }
}
