//! Vertex and edge labels (§3.1 of the paper).

/// The kind of call a *call* vertex represents.
///
/// The paper subdivides call vertices into "user-defined function calls,
/// communication function calls, external function calls, recursive calls,
/// and indirect calls, etc.".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallKind {
    /// Call to a user-defined function that is part of the analyzed program.
    User,
    /// Call to a communication primitive (`MPI_*`-like).
    Comm,
    /// Call to an external library function (e.g. allocator, libstdc++).
    External,
    /// A (possibly mutually) recursive call.
    Recursive,
    /// An indirect call resolved only at runtime.
    Indirect,
    /// Thread creation / parallel-region entry (`pthread_create`-like).
    ThreadSpawn,
    /// Lock acquisition (`pthread_mutex_lock`-like).
    Lock,
}

/// The label of a PAG vertex: which kind of code snippet it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexLabel {
    /// Synthetic root of the whole PAG (the program entry).
    Root,
    /// A function definition.
    Function,
    /// A loop construct; carries the loop nest structure underneath it.
    Loop,
    /// A conditional construct.
    Branch,
    /// A straight-line compute region (basic-block granularity).
    Compute,
    /// A call site, subdivided by [`CallKind`].
    Call(CallKind),
    /// A single instruction (finest granularity; rarely materialized).
    Instruction,
}

impl VertexLabel {
    /// True for communication call vertices.
    #[inline]
    pub fn is_comm(self) -> bool {
        matches!(self, VertexLabel::Call(CallKind::Comm))
    }

    /// Short lowercase name used in reports and DOT output.
    pub fn name(self) -> &'static str {
        match self {
            VertexLabel::Root => "root",
            VertexLabel::Function => "function",
            VertexLabel::Loop => "loop",
            VertexLabel::Branch => "branch",
            VertexLabel::Compute => "compute",
            VertexLabel::Call(CallKind::User) => "call",
            VertexLabel::Call(CallKind::Comm) => "comm-call",
            VertexLabel::Call(CallKind::External) => "ext-call",
            VertexLabel::Call(CallKind::Recursive) => "rec-call",
            VertexLabel::Call(CallKind::Indirect) => "ind-call",
            VertexLabel::Call(CallKind::ThreadSpawn) => "spawn-call",
            VertexLabel::Call(CallKind::Lock) => "lock-call",
            VertexLabel::Instruction => "instruction",
        }
    }
}

/// The kind of communication an inter-process edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommKind {
    /// Synchronous (blocking/rendezvous) point-to-point communication.
    P2pSync,
    /// Asynchronous (non-blocking) point-to-point communication.
    P2pAsync,
    /// Collective communication (allreduce, bcast, barrier, …).
    Collective,
}

/// The label of a PAG edge: which relationship it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Control flow within one function ("intra-procedural").
    IntraProc,
    /// Function-call relationship ("inter-procedural").
    InterProc,
    /// Data dependence across threads (lock waits, shared data).
    InterThread,
    /// Communication between processes, subdivided by [`CommKind`].
    InterProcess(CommKind),
}

impl EdgeLabel {
    /// True for inter-process (communication) edges of any kind.
    #[inline]
    pub fn is_inter_process(self) -> bool {
        matches!(self, EdgeLabel::InterProcess(_))
    }

    /// True for edges that cross a process or thread boundary.
    #[inline]
    pub fn is_cross_flow(self) -> bool {
        matches!(self, EdgeLabel::InterThread | EdgeLabel::InterProcess(_))
    }

    /// Short lowercase name used in reports and DOT output.
    pub fn name(self) -> &'static str {
        match self {
            EdgeLabel::IntraProc => "intra-proc",
            EdgeLabel::InterProc => "inter-proc",
            EdgeLabel::InterThread => "inter-thread",
            EdgeLabel::InterProcess(CommKind::P2pSync) => "p2p-sync",
            EdgeLabel::InterProcess(CommKind::P2pAsync) => "p2p-async",
            EdgeLabel::InterProcess(CommKind::Collective) => "collective",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_predicates() {
        assert!(VertexLabel::Call(CallKind::Comm).is_comm());
        assert!(!VertexLabel::Call(CallKind::User).is_comm());
        assert!(!VertexLabel::Function.is_comm());
    }

    #[test]
    fn edge_predicates() {
        assert!(EdgeLabel::InterProcess(CommKind::P2pSync).is_inter_process());
        assert!(EdgeLabel::InterProcess(CommKind::Collective).is_cross_flow());
        assert!(EdgeLabel::InterThread.is_cross_flow());
        assert!(!EdgeLabel::IntraProc.is_cross_flow());
        assert!(!EdgeLabel::InterProc.is_inter_process());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(VertexLabel::Loop.name(), "loop");
        assert_eq!(VertexLabel::Call(CallKind::Comm).name(), "comm-call");
        assert_eq!(
            EdgeLabel::InterProcess(CommKind::P2pAsync).name(),
            "p2p-async"
        );
        assert_eq!(EdgeLabel::IntraProc.name(), "intra-proc");
    }
}
