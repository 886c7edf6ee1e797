//! Per-process object heap and local garbage collector (LGC).
//!
//! The paper runs on managed runtimes (Rotor/.Net); their object heaps and
//! tracing collectors are reproduced here as an explicit object graph:
//!
//! * [`Heap`] — a slot arena of [`ObjectRecord`]s whose fields are
//!   [`HeapRef`]s: either local slots or remote references (a `RefId`
//!   naming a stub owned by the remoting layer),
//! * local *roots* (the paper's global variables and thread stacks),
//! * [`lgc`] — a mark-sweep collector that traces from the roots *and* from
//!   the scion targets supplied by the reference-listing layer, exactly the
//!   cooperation §4 describes ("the reference-listing algorithm must
//!   prevent the LGC from reclaiming objects that ... are target of
//!   incoming remote references").
//!
//! The LGC also reports the fact the distributed layers need from it: which
//! stubs are held by live objects.

pub mod heap;
pub mod lgc;
pub mod object;

pub use heap::{Epoch, Heap, HeapStats};
pub use lgc::{closure, collect, mark, sweep, sweep_into, Closure, MarkResult, SweepResult};
pub use object::{HeapRef, ObjectRecord};
