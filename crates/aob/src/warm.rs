//! Process-wide registry of warm [`ChunkStore`] snapshots.
//!
//! A loaded snapshot is registered once and handed around as a copyable
//! [`WarmStoreId`] — the handle threads through `QatConfig` (which must
//! stay `Copy`) without dragging an `Arc` into every config. Attaching
//! clones the store *structure* (id vector, hash table, op cache) while
//! sharing every chunk payload `Arc` with the registered snapshot — the
//! software rendering of an mmap'd read-only segment.
//!
//! The handle is the only way in: a file built without one starts cold
//! and never touches the registry. The attach is degree-checked, so a
//! snapshot only ever warms a file of its own `ways`; the CLI rejects a
//! mismatch before it builds the file.

use crate::intern::{ChunkStore, SnapshotError};
use std::sync::{Arc, Mutex};

/// Copyable handle to a registered warm snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WarmStoreId(u32);

static REGISTRY: Mutex<Vec<Arc<ChunkStore>>> = Mutex::new(Vec::new());

/// Register a warm store and get its process-wide handle.
pub fn register(store: ChunkStore) -> WarmStoreId {
    let mut reg = REGISTRY.lock().expect("warm registry poisoned");
    let id = WarmStoreId(reg.len() as u32);
    reg.push(Arc::new(store));
    id
}

/// Load a snapshot from disk and register it. Returns the handle and the
/// snapshot's entanglement degree.
pub fn load(path: &std::path::Path) -> Result<(WarmStoreId, u32), SnapshotError> {
    let store = ChunkStore::load(path)?;
    let ways = store.ways();
    Ok((register(store), ways))
}

/// The shared snapshot behind a handle.
fn get(id: WarmStoreId) -> Option<Arc<ChunkStore>> {
    REGISTRY.lock().expect("warm registry poisoned").get(id.0 as usize).cloned()
}

/// Adopt the snapshot behind `warm` for a file of `degree` ways: a clone
/// that shares every chunk payload `Arc` with the registry, accounted
/// under `store.chunks.attached`. `None` (a cold start) without a handle
/// or when the snapshot is of another degree.
pub fn attach(warm: Option<WarmStoreId>, degree: u32) -> Option<ChunkStore> {
    let shared = get(warm?).filter(|s| s.ways() == degree)?;
    shared.note_attached();
    Some((*shared).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Aob;

    #[test]
    fn explicit_handle_attaches_only_at_its_degree() {
        let mut s = ChunkStore::new(5);
        let extra = s.intern(Aob::from_fn(5, |e| e % 3 == 0));
        let id = register(s);
        let warm = attach(Some(id), 5).expect("explicit attach");
        assert_eq!(warm.aob(extra), &Aob::from_fn(5, |e| e % 3 == 0));
        // Degree mismatch stays cold, and so does a file with no handle.
        assert!(attach(Some(id), 6).is_none());
        assert!(attach(None, 5).is_none());
    }

    #[test]
    fn attach_shares_chunk_payloads() {
        let mut s = ChunkStore::new(4);
        let a = s.intern(Aob::from_fn(4, |e| e & 1 == 1));
        let id = register(s);
        let attached = attach(Some(id), 4).unwrap();
        let shared = get(id).unwrap();
        assert!(Arc::ptr_eq(shared.arc(a), attached.arc(a)), "payloads are shared, not copied");
    }
}
