//! Calling context tree (CCT).
//!
//! The sampler reports *calling contexts* — the libunwind stack-walk
//! equivalent. A context is a path of frames: function entries and
//! structural statements (loops, branches, call sites, compute kernels,
//! comm ops). Contexts are interned so a sample is a single `u32`;
//! performance-data embedding (§3.3) later resolves a context to the PAG
//! vertices along its path.

use progmodel::{FuncId, StmtId};

use crate::hash::IntMap;

/// Interned calling-context id. `CtxId(0)` is the root (program entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub u32);

/// One frame of a calling context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxFrame {
    /// A function body was entered.
    Func(FuncId),
    /// A structural statement (loop, branch, call site, compute, comm,
    /// lock) was entered.
    Stmt(StmtId),
}

#[derive(Debug, Clone)]
struct Node {
    parent: CtxId,
    frame: CtxFrame,
    depth: u32,
}

/// The calling context tree for one run.
#[derive(Debug, Clone)]
pub struct Cct {
    nodes: Vec<Node>,
    intern: IntMap<(CtxId, CtxFrame), CtxId>,
}

impl Cct {
    /// New CCT rooted at the entry function.
    pub fn new(entry: FuncId) -> Self {
        Cct {
            nodes: vec![Node {
                parent: CtxId(0),
                frame: CtxFrame::Func(entry),
                depth: 0,
            }],
            intern: IntMap::default(),
        }
    }

    /// The root context (program entry).
    pub fn root(&self) -> CtxId {
        CtxId(0)
    }

    /// Number of distinct contexts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Intern (or find) the child of `parent` for `frame`.
    pub fn child(&mut self, parent: CtxId, frame: CtxFrame) -> CtxId {
        if let Some(&id) = self.intern.get(&(parent, frame)) {
            return id;
        }
        let id = CtxId(self.nodes.len() as u32);
        self.nodes.push(Node {
            parent,
            frame,
            depth: self.nodes[parent.0 as usize].depth + 1,
        });
        self.intern.insert((parent, frame), id);
        id
    }

    /// The frame of a context node.
    pub fn frame(&self, ctx: CtxId) -> CtxFrame {
        self.nodes[ctx.0 as usize].frame
    }

    /// The parent of a context node (root's parent is itself).
    pub fn parent(&self, ctx: CtxId) -> CtxId {
        self.nodes[ctx.0 as usize].parent
    }

    /// Depth of a context node (root = 0).
    pub fn depth(&self, ctx: CtxId) -> u32 {
        self.nodes[ctx.0 as usize].depth
    }

    /// Full path of frames from the root to `ctx` (root first).
    pub fn path(&self, ctx: CtxId) -> Vec<CtxFrame> {
        let mut frames = Vec::with_capacity(self.depth(ctx) as usize + 1);
        let mut cur = ctx;
        loop {
            frames.push(self.frame(cur));
            if cur == self.root() {
                break;
            }
            cur = self.parent(cur);
        }
        frames.reverse();
        frames
    }

    /// Merge every context of `other` into `self`, returning the remap
    /// table `other CtxId index → self CtxId`.
    ///
    /// Relies on the construction invariant that a node's parent always
    /// has a smaller index than the node itself, so a single forward walk
    /// re-interns each node under its already-remapped parent. Merging
    /// per-rank CCT shards in rank order therefore produces one
    /// deterministic tree regardless of how the shards were built.
    pub fn merge_from(&mut self, other: &Cct) -> Vec<CtxId> {
        debug_assert_eq!(
            self.nodes[0].frame, other.nodes[0].frame,
            "shards must share the entry function"
        );
        let mut remap = Vec::with_capacity(other.nodes.len());
        remap.push(self.root());
        for node in &other.nodes[1..] {
            let parent = remap[node.parent.0 as usize];
            remap.push(self.child(parent, node.frame));
        }
        remap
    }

    /// Iterate over a context's chain of ids from `ctx` up to the root.
    pub fn ancestors(&self, ctx: CtxId) -> impl Iterator<Item = CtxId> + '_ {
        let mut cur = Some(ctx);
        std::iter::from_fn(move || {
            let c = cur?;
            cur = if c == self.root() {
                None
            } else {
                Some(self.parent(c))
            };
            Some(c)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut cct = Cct::new(FuncId(0));
        let a = cct.child(cct.root(), CtxFrame::Stmt(StmtId(1)));
        let b = cct.child(cct.root(), CtxFrame::Stmt(StmtId(1)));
        assert_eq!(a, b);
        let c = cct.child(a, CtxFrame::Func(FuncId(2)));
        assert_ne!(a, c);
        assert_eq!(cct.len(), 3);
    }

    #[test]
    fn paths_and_depths() {
        let mut cct = Cct::new(FuncId(0));
        let l = cct.child(cct.root(), CtxFrame::Stmt(StmtId(5)));
        let f = cct.child(l, CtxFrame::Func(FuncId(1)));
        let k = cct.child(f, CtxFrame::Stmt(StmtId(9)));
        assert_eq!(cct.depth(k), 3);
        assert_eq!(
            cct.path(k),
            vec![
                CtxFrame::Func(FuncId(0)),
                CtxFrame::Stmt(StmtId(5)),
                CtxFrame::Func(FuncId(1)),
                CtxFrame::Stmt(StmtId(9)),
            ]
        );
        let up: Vec<CtxId> = cct.ancestors(k).collect();
        assert_eq!(up, vec![k, f, l, cct.root()]);
    }

    #[test]
    fn merge_from_reinterns_under_remapped_parents() {
        // Shard A: root → s1 → f2; shard B: root → s1 → s3 (overlapping
        // prefix, divergent leaf).
        let mut a = Cct::new(FuncId(0));
        let a1 = a.child(a.root(), CtxFrame::Stmt(StmtId(1)));
        let a2 = a.child(a1, CtxFrame::Func(FuncId(2)));
        let mut b = Cct::new(FuncId(0));
        let b1 = b.child(b.root(), CtxFrame::Stmt(StmtId(1)));
        let b2 = b.child(b1, CtxFrame::Stmt(StmtId(3)));
        let remap = a.merge_from(&b);
        // Shared prefix dedups onto the existing nodes…
        assert_eq!(remap[b.root().0 as usize], a.root());
        assert_eq!(remap[b1.0 as usize], a1);
        // …and the divergent leaf is a fresh node.
        let merged_leaf = remap[b2.0 as usize];
        assert_ne!(merged_leaf, a2);
        assert_eq!(a.frame(merged_leaf), CtxFrame::Stmt(StmtId(3)));
        assert_eq!(a.parent(merged_leaf), a1);
        assert_eq!(a.len(), 4);
        // Merging is idempotent on identical shards.
        let again = a.merge_from(&b);
        assert_eq!(again, remap);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn root_path_is_entry_only() {
        let cct = Cct::new(FuncId(7));
        assert_eq!(cct.path(cct.root()), vec![CtxFrame::Func(FuncId(7))]);
        assert!(cct.is_empty());
    }
}
