//! Atomic file publish.

use std::fs::File;
use std::io::Write as _;
use std::path::Path;

use crate::WalError;

/// Writes `bytes` to `path` atomically: temp file → fsync → rename →
/// fsync of the parent directory. A reader (or a recovery after a crash
/// at any point of this sequence) sees either the previous complete
/// content or the new complete content.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let parent = path.parent().ok_or_else(|| {
        WalError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "atomic_write path has no parent directory",
        ))
    })?;
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = parent.join(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself (the directory entry).
    File::open(parent)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join(format!("taxo-wal-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(
            !dir.join("artifact.json.tmp").exists(),
            "temp file must not survive a publish"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
