"""The Flux distributed key-value store (paper Section IV-B).

Content-addressable hash-tree storage (:mod:`.store`, :mod:`.hashtree`),
the root master (:mod:`.master`), caching slaves (:mod:`.cache`), the
``kvs`` comms module binding them to the CMB (:mod:`.module`), and the
client-side ``kvs_*`` API (:mod:`.api`).
"""

from .api import KvsClient, Watcher
from .cache import CacheStats, SlaveCache
from .hashtree import (KvsPathError, apply_update, apply_updates, list_dir,
                       lookup, lookup_ref, split_key)
from .master import CommitResult, KvsMaster
from .module import KvsModule
from .store import (EMPTY_DIR, EMPTY_DIR_SHA, ObjectStore, dir_entries,
                    is_dir_obj, is_val_obj, make_dir_obj, make_val_obj,
                    obj_size, val_of)

__all__ = [
    "KvsClient", "Watcher", "CacheStats", "SlaveCache", "KvsPathError",
    "apply_update", "apply_updates", "list_dir", "lookup", "lookup_ref",
    "split_key", "CommitResult", "KvsMaster", "KvsModule",
    "EMPTY_DIR", "EMPTY_DIR_SHA", "ObjectStore", "dir_entries",
    "is_dir_obj", "is_val_obj", "make_dir_obj", "make_val_obj",
    "obj_size", "val_of",
]
