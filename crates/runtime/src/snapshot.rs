//! Versioned, checksummed snapshot envelopes.
//!
//! Every artifact the supervised runtime persists — job checkpoints, and
//! (via `dlperf-kernels`) calibrated model bundles — travels inside an
//! [`Envelope`]: a small JSON wrapper carrying a schema name, a format
//! version, and an FNV-1a checksum of the payload. Snapshots are untrusted
//! input on the way back in (they may be truncated by a kill mid-write,
//! hand-edited, or produced by an incompatible build), so [`open`] verifies
//! all three before a single payload byte reaches the caller.

use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

/// Why a snapshot could not be sealed or opened.
#[derive(Debug)]
pub enum SnapshotError {
    /// The envelope or payload is not valid JSON (e.g. a file truncated by
    /// a kill mid-write).
    Parse(serde_json::Error),
    /// The envelope belongs to a different artifact kind.
    SchemaMismatch {
        /// Schema the caller expected.
        expected: String,
        /// Schema found in the envelope.
        found: String,
    },
    /// The envelope's format version is not the supported one.
    VersionMismatch {
        /// Version the caller supports.
        supported: u32,
        /// Version found in the envelope.
        found: u32,
    },
    /// The payload does not hash to the recorded checksum (bit rot,
    /// truncation past the JSON parser, or manual edits).
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        recorded: String,
        /// Checksum of the payload as found.
        computed: String,
    },
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Parse(e) => write!(f, "snapshot is not valid JSON: {e}"),
            SnapshotError::SchemaMismatch { expected, found } => {
                write!(
                    f,
                    "snapshot schema mismatch: expected `{expected}`, found `{found}`"
                )
            }
            SnapshotError::VersionMismatch { supported, found } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (this build reads {supported})"
                )
            }
            SnapshotError::ChecksumMismatch { recorded, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: recorded {recorded}, computed {computed}"
                )
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Parse(e) => Some(e),
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Parse(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a over `bytes`, the checksum the envelope records. Not
/// cryptographic — it detects truncation and corruption, not tampering.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The serialized wrapper around every persisted artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Envelope {
    /// Artifact kind, e.g. `"dlperf.checkpoint"`.
    pub schema: String,
    /// Format version of the payload.
    pub version: u32,
    /// Hex FNV-1a checksum of the payload string.
    pub checksum: String,
    /// The payload, as a JSON string (kept opaque so the checksum is over
    /// exactly the bytes that deserialize).
    pub payload: String,
}

/// Serializes `value` into a sealed envelope string.
///
/// # Errors
/// [`SnapshotError::Parse`] if `value` cannot be serialized (non-string map
/// keys and the like).
pub fn seal<T: Serialize>(schema: &str, version: u32, value: &T) -> Result<String, SnapshotError> {
    let payload = serde_json::to_string(value)?;
    let env = Envelope {
        schema: schema.to_string(),
        version,
        checksum: format!("{:016x}", fnv1a64(payload.as_bytes())),
        payload,
    };
    Ok(serde_json::to_string(&env)?)
}

/// Opens a sealed envelope, verifying schema, version, and checksum before
/// deserializing the payload.
///
/// # Errors
/// Any [`SnapshotError`] variant except `Io`.
pub fn open<T: DeserializeOwned>(schema: &str, version: u32, s: &str) -> Result<T, SnapshotError> {
    let env: Envelope = serde_json::from_str(s)?;
    if env.schema != schema {
        return Err(SnapshotError::SchemaMismatch {
            expected: schema.to_string(),
            found: env.schema,
        });
    }
    if env.version != version {
        return Err(SnapshotError::VersionMismatch {
            supported: version,
            found: env.version,
        });
    }
    let computed = format!("{:016x}", fnv1a64(env.payload.as_bytes()));
    if computed != env.checksum {
        return Err(SnapshotError::ChecksumMismatch {
            recorded: env.checksum,
            computed,
        });
    }
    Ok(serde_json::from_str(&env.payload)?)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trips() {
        let v = vec![(1u64, 2.5f64), (3, 4.75)];
        let sealed = seal("dlperf.test", 1, &v).unwrap();
        let back: Vec<(u64, f64)> = open("dlperf.test", 1, &sealed).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn truncated_snapshot_is_a_parse_error() {
        let sealed = seal("dlperf.test", 1, &vec![1u64; 100]).unwrap();
        let truncated = &sealed[..sealed.len() / 2];
        match open::<Vec<u64>>("dlperf.test", 1, truncated) {
            Err(SnapshotError::Parse(_)) => {}
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_schema_and_version_are_typed() {
        let sealed = seal("dlperf.a", 2, &7u64).unwrap();
        match open::<u64>("dlperf.b", 2, &sealed) {
            Err(SnapshotError::SchemaMismatch { expected, found }) => {
                assert_eq!(expected, "dlperf.b");
                assert_eq!(found, "dlperf.a");
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        match open::<u64>("dlperf.a", 3, &sealed) {
            Err(SnapshotError::VersionMismatch {
                supported: 3,
                found: 2,
            }) => {}
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let sealed = seal("dlperf.test", 1, &vec![10u64, 20, 30]).unwrap();
        // Flip a digit inside the payload without breaking the JSON.
        let corrupted = sealed.replace("20", "21");
        assert_ne!(sealed, corrupted, "corruption must hit the payload");
        match open::<Vec<u64>>("dlperf.test", 1, &corrupted) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn f64_payloads_round_trip_bitwise() {
        let xs = vec![0.1f64, 1.0 / 3.0, 1e-300, 123_456_789.123_456_78];
        let sealed = seal("dlperf.test", 1, &xs).unwrap();
        let back: Vec<f64> = open("dlperf.test", 1, &sealed).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
