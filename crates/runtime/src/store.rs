//! Checkpoint storage backends.
//!
//! A [`CheckpointStore`] holds at most one sealed snapshot (the latest).
//! [`FileStore`] is the durable backend: it writes through a temp file and
//! renames, so a kill mid-write leaves either the old snapshot or the new
//! one, never a half-written file. [`MemoryStore`] backs tests and
//! in-process resume without touching disk.

use std::path::{Path, PathBuf};

use crate::snapshot::SnapshotError;

/// Storage for the latest sealed checkpoint of one job.
pub trait CheckpointStore {
    /// Replaces the stored snapshot.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on backend failure.
    fn save(&mut self, sealed: &str) -> Result<(), SnapshotError>;

    /// The stored snapshot, if any.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on backend failure.
    fn load(&self) -> Result<Option<String>, SnapshotError>;

    /// Removes the stored snapshot (called after a successful run so a
    /// later job under the same store starts fresh).
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on backend failure.
    fn clear(&mut self) -> Result<(), SnapshotError>;
}

/// In-memory single-slot store.
#[derive(Debug, Default)]
pub struct MemoryStore {
    slot: Option<String>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw stored snapshot (for tests that corrupt it deliberately).
    pub fn raw(&self) -> Option<&str> {
        self.slot.as_deref()
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&mut self, sealed: &str) -> Result<(), SnapshotError> {
        self.slot = Some(sealed.to_string());
        Ok(())
    }

    fn load(&self) -> Result<Option<String>, SnapshotError> {
        Ok(self.slot.clone())
    }

    fn clear(&mut self) -> Result<(), SnapshotError> {
        self.slot = None;
        Ok(())
    }
}

/// Durable single-file store with atomic replace.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// A store persisting to `path`. The file need not exist yet.
    pub fn new(path: impl AsRef<Path>) -> Self {
        FileStore {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// The checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads the stored envelope and opens it in one step, verifying
    /// schema, version, and checksum before touching the payload. A
    /// missing file is `Ok(None)`; *any* corruption — truncation, bit
    /// flips, a stray editor save — is a typed [`SnapshotError`], never a
    /// panic, so a damaged checkpoint degrades to "start fresh or alert",
    /// the caller's choice.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] when the file cannot be read; otherwise
    /// whatever [`crate::snapshot::open`] diagnoses.
    pub fn open_snapshot<T: serde::de::DeserializeOwned>(
        &self,
        schema: &str,
        version: u32,
    ) -> Result<Option<T>, SnapshotError> {
        match self.load()? {
            Some(sealed) => Ok(Some(crate::snapshot::open(schema, version, &sealed)?)),
            None => Ok(None),
        }
    }
}

impl CheckpointStore for FileStore {
    fn save(&mut self, sealed: &str) -> Result<(), SnapshotError> {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, sealed)?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load(&self) -> Result<Option<String>, SnapshotError> {
        match std::fs::read_to_string(&self.path) {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(SnapshotError::Io(e)),
        }
    }

    fn clear(&mut self) -> Result<(), SnapshotError> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(SnapshotError::Io(e)),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_single_slot() {
        let mut s = MemoryStore::new();
        assert!(s.load().unwrap().is_none());
        s.save("a").unwrap();
        s.save("b").unwrap();
        assert_eq!(s.load().unwrap().as_deref(), Some("b"));
        s.clear().unwrap();
        assert!(s.load().unwrap().is_none());
    }

    #[test]
    fn open_snapshot_round_trips_and_types_every_corruption() {
        use crate::snapshot::seal;

        let dir = std::env::temp_dir().join(format!("dlperf-open-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut s = FileStore::new(&path);

        // Missing file: clean None.
        let none: Option<Vec<u64>> = s.open_snapshot("t.schema", 1).unwrap();
        assert!(none.is_none());

        // Intact envelope round-trips.
        let payload: Vec<u64> = vec![1, 2, 3];
        let sealed = seal("t.schema", 1, &payload).unwrap();
        s.save(&sealed).unwrap();
        let back: Option<Vec<u64>> = s.open_snapshot("t.schema", 1).unwrap();
        assert_eq!(back.as_deref(), Some(&payload[..]));

        // Truncated file: typed error, not a panic.
        std::fs::write(&path, &sealed[..sealed.len() / 2]).unwrap();
        let err = s.open_snapshot::<Vec<u64>>("t.schema", 1).unwrap_err();
        assert!(matches!(err, SnapshotError::Parse(_)), "got {err:?}");

        // Bit-flipped payload byte: the checksum catches it.
        let mut bytes = sealed.clone().into_bytes();
        let flip = sealed.rfind("payload").unwrap() + 12;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match s.open_snapshot::<Vec<u64>>("t.schema", 1) {
            Ok(_) => panic!("corruption must not open cleanly"),
            Err(e) => {
                let _ = e.to_string(); // typed and printable
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nesting_bomb_snapshot_is_a_parse_error() {
        let dir = std::env::temp_dir().join(format!("dlperf-store-bomb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let s = FileStore::new(&path);
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        let err = s.open_snapshot::<Vec<u64>>("t.schema", 1).unwrap_err();
        assert!(matches!(err, SnapshotError::Parse(_)), "got {err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_round_trips_and_clears() {
        let dir = std::env::temp_dir().join(format!("dlperf-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut s = FileStore::new(&path);
        assert!(
            s.load().unwrap().is_none(),
            "missing file is a clean start, not an error"
        );
        s.save("snapshot-1").unwrap();
        assert_eq!(s.load().unwrap().as_deref(), Some("snapshot-1"));
        s.save("snapshot-2").unwrap();
        assert_eq!(s.load().unwrap().as_deref(), Some("snapshot-2"));
        s.clear().unwrap();
        assert!(s.load().unwrap().is_none());
        s.clear().unwrap(); // clearing twice is fine
        std::fs::remove_dir_all(&dir).ok();
    }
}
