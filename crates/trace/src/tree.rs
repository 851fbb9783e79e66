//! Execution-tree construction, rendering, and pruning.

use gadt_analysis::dyntrace::{CallRecord, CallTree, DynTrace, LoopRecord};
use gadt_analysis::slice_dynamic::DynSlice;
use gadt_pascal::name::Name;
use gadt_pascal::sema::{Module, ProcId, VarId, VarKind};
use gadt_pascal::value::Value;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Index of a node within an [`ExecTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What kind of unit a node represents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A procedure or function invocation.
    Call {
        /// The dynamic call id in the underlying trace.
        call: u64,
        /// The invoked procedure.
        proc: ProcId,
        /// Whether the unit is a function (renders as `f(…) = v`).
        is_function: bool,
    },
    /// A dynamic loop instance (loops are units, §5.1).
    Loop {
        /// The loop instance id in the underlying trace.
        instance: u64,
        /// Total header arrivals.
        iterations: u64,
    },
}

/// One execution-tree node.
#[derive(Debug, Clone)]
pub struct ExecNode {
    /// This node's id.
    pub id: NodeId,
    /// Call or loop unit.
    pub kind: NodeKind,
    /// Display name (`computs`, `loop in arrsum`, …).
    pub name: Name,
    /// Named input values: parameters (with their incoming values) and
    /// non-local variables read before written.
    pub ins: Vec<(Name, Value)>,
    /// Named output values: reference parameters' final values, the
    /// function result (named after the function), and written non-locals.
    pub outs: Vec<(Name, Value)>,
    /// Per-iteration snapshots for loop nodes: `(iteration, values)`.
    pub iterations: Vec<(u64, Vec<(Name, Value)>)>,
    /// Children, in execution order.
    pub children: Vec<NodeId>,
    /// First trace-event index covered by this unit.
    pub enter_idx: usize,
    /// One past the last trace-event index covered.
    pub exit_idx: usize,
    /// Depth in the tree (root = 0).
    pub depth: usize,
}

/// The execution tree of one program run.
#[derive(Debug, Clone)]
pub struct ExecTree {
    /// All nodes; `nodes[0]` is the root.
    pub nodes: Vec<ExecNode>,
    /// The root node (the main program).
    pub root: NodeId,
}

impl ExecTree {
    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &ExecNode {
        &self.nodes[id.0 as usize]
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records this tree's size on `rec` as the counter `tree.nodes`
    /// and a `tree.built` tick.
    pub fn observe(&self, rec: &mut gadt_obs::Recorder) {
        rec.incr("tree.built");
        rec.add("tree.nodes", self.nodes.len() as u64);
    }

    /// Nodes in pre-order (the paper's top-down traversal).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        out.extend(self.preorder_iter());
        out
    }

    /// Nodes in pre-order, one at a time: a search that stops early
    /// visits only the nodes before its hit and collects nothing.
    pub fn preorder_iter(&self) -> Preorder<'_> {
        Preorder {
            tree: self,
            stack: vec![self.root],
        }
    }

    /// Finds the first (pre-order) call node for a procedure name,
    /// compared ignoring ASCII case.
    pub fn find_call(&self, module: &Module, name: &str) -> Option<NodeId> {
        self.preorder_iter().find(|&n| {
            matches!(
                &self.node(n).kind,
                NodeKind::Call { proc, .. } if module.proc(*proc).name.eq_ignore_ascii_case(name)
            )
        })
    }

    /// Renders one node in the paper's query format:
    /// `sqrtest(In ary: [1,2], In n: 2, Out isok: false)` or
    /// `decrement(In y: 3) = 4` for functions.
    pub fn render_node(&self, id: NodeId) -> String {
        let mut s = String::new();
        self.write_node(id, &mut s);
        s
    }

    /// Appends [`ExecTree::render_node`]'s text to `s`: every
    /// rendering writes its nodes through here, into one buffer.
    fn write_node(&self, id: NodeId, s: &mut String) {
        let n = self.node(id);
        match &n.kind {
            NodeKind::Call { is_function, .. } => {
                let _ = write!(s, "{}(", n.name);
                let mut first = true;
                for (name, v) in &n.ins {
                    if !first {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "In {name}: {v}");
                    first = false;
                }
                let mut result: Option<&Value> = None;
                for (name, v) in &n.outs {
                    if *is_function && name == &n.name {
                        result = Some(v);
                        continue;
                    }
                    if !first {
                        s.push_str(", ");
                    }
                    let _ = write!(s, "Out {name}: {v}");
                    first = false;
                }
                s.push(')');
                if let Some(v) = result {
                    let _ = write!(s, " = {v}");
                }
            }
            NodeKind::Loop { iterations, .. } => {
                let _ = write!(s, "{} [{} iteration(s)]", n.name, iterations);
                if let Some((_, vars)) = n.iterations.last() {
                    s.push_str(" (");
                    for (i, (name, v)) in vars.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        let _ = write!(s, "Out {name}: {v}");
                    }
                    s.push(')');
                }
            }
        }
    }

    /// Renders the whole tree (or a subtree) as an indented listing, one
    /// node per line — the textual analogue of the paper's Figure 7.
    pub fn render(&self, root: NodeId) -> String {
        let mut out = String::new();
        self.render_rec(root, 0, &mut out);
        out
    }

    fn render_rec(&self, id: NodeId, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        self.write_node(id, out);
        out.push('\n');
        for c in &self.node(id).children {
            self.render_rec(*c, depth + 1, out);
        }
    }

    /// Renders the run's top-level interface: the root's line, then one
    /// line per child of the root, joined by newlines. This is all of a
    /// run a user can observe besides its output, and what a mutant
    /// campaign compares to decide whether a mutant is killed.
    pub fn render_interface(&self) -> String {
        let mut out = String::new();
        self.write_node(self.root, &mut out);
        for &c in &self.node(self.root).children {
            out.push('\n');
            self.write_node(c, &mut out);
        }
        out
    }

    /// Prunes the tree against a dynamic slice: keeps call nodes whose
    /// dynamic call the slice retains, and loop nodes covering at least
    /// one relevant event. Children of dropped nodes are dropped with
    /// them (a dropped call's subtree is irrelevant by construction).
    /// Returns a new tree rooted at the same unit as `root`.
    pub fn prune(&self, root: NodeId, slice: &DynSlice) -> ExecTree {
        let mut nodes = Vec::new();
        let new_root = self.prune_rec(root, slice, 0, &mut nodes);
        match new_root {
            Some(r) => ExecTree { nodes, root: r },
            None => ExecTree {
                nodes: Vec::new(),
                root: NodeId(0),
            },
        }
    }

    fn prune_rec(
        &self,
        id: NodeId,
        slice: &DynSlice,
        depth: usize,
        out: &mut Vec<ExecNode>,
    ) -> Option<NodeId> {
        let n = self.node(id);
        let keep = match &n.kind {
            NodeKind::Call { call, .. } => slice.keeps_call(*call),
            NodeKind::Loop { .. } => slice.events.range(n.enter_idx..n.exit_idx).next().is_some(),
        };
        if !keep {
            return None;
        }
        let new_id = NodeId(out.len() as u32);
        out.push(ExecNode {
            id: new_id,
            kind: n.kind.clone(),
            name: n.name.clone(),
            ins: n.ins.clone(),
            outs: n.outs.clone(),
            iterations: n.iterations.clone(),
            children: Vec::new(),
            enter_idx: n.enter_idx,
            exit_idx: n.exit_idx,
            depth,
        });
        let mut children = Vec::new();
        for c in &n.children {
            if let Some(nc) = self.prune_rec(*c, slice, depth + 1, out) {
                children.push(nc);
            }
        }
        out[new_id.0 as usize].children = children;
        Some(new_id)
    }
}

/// [`ExecTree::preorder_iter`]'s iterator.
pub struct Preorder<'t> {
    tree: &'t ExecTree,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        self.stack
            .extend(self.tree.node(n).children.iter().rev().copied());
        Some(n)
    }
}

/// An oracle or session can judge against a tree it owns or one it
/// borrows; both convert to a `Cow`.
impl From<ExecTree> for Cow<'_, ExecTree> {
    fn from(tree: ExecTree) -> Self {
        Cow::Owned(tree)
    }
}

impl<'t> From<&'t ExecTree> for Cow<'t, ExecTree> {
    fn from(tree: &'t ExecTree) -> Self {
        Cow::Borrowed(tree)
    }
}

/// Builds the execution tree from a recorded trace.
///
/// Loop instances become nodes nested inside their call's children;
/// calls made from inside a loop body nest under the loop node.
///
/// # Examples
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use gadt_pascal::{sema::compile, cfg::lower, testprogs};
/// use gadt_analysis::dyntrace::record_trace;
/// use gadt_trace::build_tree;
/// let m = compile(testprogs::SQRTEST)?;
/// let cfg = lower(&m);
/// let trace = record_trace(&m, &cfg, [])?;
/// let tree = build_tree(&m, &trace);
/// let sqrtest = tree.find_call(&m, "sqrtest").unwrap();
/// assert!(tree.render_node(sqrtest).starts_with("sqrtest(In"));
/// # Ok(())
/// # }
/// ```
pub fn build_tree(module: &Module, trace: &DynTrace) -> ExecTree {
    build(module, &trace.calls, &trace.loops)
}

/// Builds the execution tree of a run recorded by a
/// [`gadt_analysis::dyntrace::CallTreeRecorder`]: the same tree
/// [`build_tree`] builds from the same run's [`DynTrace`], since the
/// tree reads only the call and loop records.
pub fn build_call_tree(module: &Module, tree: &CallTree) -> ExecTree {
    build(module, &tree.calls, &tree.loops)
}

fn build(module: &Module, calls: &[CallRecord], loops: &[LoopRecord]) -> ExecTree {
    let mut nodes: Vec<ExecNode> = Vec::new();
    let root = build_call(module, calls, loops, 0, 0, &mut nodes);
    ExecTree { nodes, root }
}

fn var_display_name(module: &Module, var: VarId) -> Name {
    module.var(var).name.clone()
}

fn build_call(
    module: &Module,
    calls: &[CallRecord],
    loops: &[LoopRecord],
    call: u64,
    depth: usize,
    nodes: &mut Vec<ExecNode>,
) -> NodeId {
    let rec = &calls[call as usize];
    let info = module.proc(rec.proc);
    let id = NodeId(nodes.len() as u32);

    let mut ins: Vec<(Name, Value)> = rec
        .args
        .iter()
        .filter(|(p, _)| {
            // Value/`in` parameters always carry inputs; `var` parameters
            // only when the callee actually read the incoming value;
            // `out` parameters never do.
            match module.var(*p).param_mode() {
                Some(gadt_pascal::ast::ParamMode::Value)
                | Some(gadt_pascal::ast::ParamMode::In)
                | None => true,
                Some(gadt_pascal::ast::ParamMode::Var) => rec.ref_params_read.contains(p),
                Some(gadt_pascal::ast::ParamMode::Out) => false,
            }
        })
        .map(|(p, v)| (var_display_name(module, *p), v.clone()))
        .collect();
    for (v, val) in &rec.nonlocal_reads {
        ins.push((var_display_name(module, *v), val.clone()));
    }
    let mut outs: Vec<(Name, Value)> = rec
        .outs
        .iter()
        .map(|(p, v)| {
            let name = if module.var(*p).kind == VarKind::Result {
                info.name.clone()
            } else {
                var_display_name(module, *p)
            };
            (name, v.clone())
        })
        .collect();
    for (v, val) in &rec.nonlocal_writes {
        outs.push((var_display_name(module, *v), val.clone()));
    }

    nodes.push(ExecNode {
        id,
        kind: NodeKind::Call {
            call,
            proc: rec.proc,
            is_function: info.is_function(),
        },
        name: if rec.proc == gadt_pascal::sema::MAIN_PROC {
            module.program.name.name.clone()
        } else {
            info.name.clone()
        },
        ins,
        outs,
        iterations: Vec::new(),
        children: Vec::new(),
        enter_idx: rec.enter_idx,
        exit_idx: rec.exit_idx,
        depth,
    });

    // Items directly inside this call: child calls and loop instances of
    // this call, ordered by entry; loops may contain calls (and inner
    // loops) by interval containment.
    enum Item {
        Call(u64),
        Loop(usize),
    }
    let mut items: Vec<(usize, usize, Item)> = Vec::new();
    for &c in &rec.children {
        let cr = &calls[c as usize];
        items.push((cr.enter_idx, cr.exit_idx, Item::Call(c)));
    }
    for (li, l) in loops.iter().enumerate() {
        if l.call == call {
            items.push((l.enter_idx, l.exit_idx, Item::Loop(li)));
        }
    }
    // Sort by entry; on ties, wider intervals first (loop encloses call).
    items.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));

    // Nest via a stack of open loop nodes.
    let mut open: Vec<(usize, NodeId)> = Vec::new(); // (exit_idx, node)
    for (enter, exit, item) in items {
        while let Some(&(open_exit, _)) = open.last() {
            if enter >= open_exit {
                open.pop();
            } else {
                break;
            }
        }
        let parent = open.last().map(|&(_, n)| n).unwrap_or(id);
        let parent_depth = nodes[parent.0 as usize].depth;
        match item {
            Item::Call(c) => {
                let child = build_call(module, calls, loops, c, parent_depth + 1, nodes);
                nodes[parent.0 as usize].children.push(child);
            }
            Item::Loop(li) => {
                let l = &loops[li];
                let lid = NodeId(nodes.len() as u32);
                let iterations: Vec<(u64, Vec<(Name, Value)>)> = l
                    .snapshots
                    .iter()
                    .map(|(i, vars)| {
                        (
                            *i,
                            vars.iter()
                                .map(|(v, val)| (var_display_name(module, *v), val.clone()))
                                .collect(),
                        )
                    })
                    .collect();
                nodes.push(ExecNode {
                    id: lid,
                    kind: NodeKind::Loop {
                        instance: l.instance,
                        iterations: l.iterations,
                    },
                    name: Name::format(format_args!("loop in {}", module.proc(rec.proc).name)),
                    ins: Vec::new(),
                    outs: iterations
                        .last()
                        .map(|(_, vars)| vars.clone())
                        .unwrap_or_default(),
                    iterations,
                    children: Vec::new(),
                    enter_idx: enter,
                    exit_idx: exit,
                    depth: parent_depth + 1,
                });
                nodes[parent.0 as usize].children.push(lid);
                open.push((exit, lid));
            }
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use gadt_analysis::dyntrace::record_trace;
    use gadt_analysis::slice_dynamic::dynamic_slice_output;
    use gadt_pascal::cfg::lower;
    use gadt_pascal::sema::compile;
    use gadt_pascal::testprogs;

    fn tree_of(src: &str) -> (Module, DynTrace, ExecTree) {
        let m = compile(src).expect("compile");
        let cfg = lower(&m);
        let t = record_trace(&m, &cfg, []).expect("run");
        let tree = build_tree(&m, &t);
        (m, t, tree)
    }

    #[test]
    fn figure7_tree_shape() {
        let (m, _, tree) = tree_of(testprogs::SQRTEST);
        // Main + 13 invocations + 1 loop (in arrsum) = 15 nodes.
        assert_eq!(tree.len(), 15);
        let sqrtest = tree.find_call(&m, "sqrtest").unwrap();
        let names: Vec<&str> = tree
            .node(sqrtest)
            .children
            .iter()
            .map(|&c| tree.node(c).name.as_str())
            .collect();
        assert_eq!(names, vec!["arrsum", "computs", "test"]);
        // The loop nests under arrsum.
        let arrsum = tree.find_call(&m, "arrsum").unwrap();
        assert_eq!(tree.node(arrsum).children.len(), 1);
        assert!(tree
            .node(tree.node(arrsum).children[0])
            .name
            .starts_with("loop"));
    }

    #[test]
    fn figure7_node_renderings() {
        let (m, _, tree) = tree_of(testprogs::SQRTEST);
        let render = |name: &str| {
            let n = tree.find_call(&m, name).unwrap();
            tree.render_node(n)
        };
        assert_eq!(
            render("sqrtest"),
            "sqrtest(In ary: [1,2], In n: 2, Out isok: false)"
        );
        assert_eq!(render("arrsum"), "arrsum(In a: [1,2], In n: 2, Out b: 3)");
        assert_eq!(render("computs"), "computs(In y: 3, Out r1: 12, Out r2: 9)");
        assert_eq!(render("test"), "test(In r1: 12, In r2: 9, Out isok: false)");
        assert_eq!(render("decrement"), "decrement(In y: 3) = 4");
        assert_eq!(render("increment"), "increment(In y: 3) = 4");
        assert_eq!(
            render("partialsums"),
            "partialsums(In y: 3, Out s1: 6, Out s2: 6)"
        );
        assert_eq!(render("add"), "add(In s1: 6, In s2: 6, Out r1: 12)");
        assert_eq!(render("square"), "square(In y: 3, Out r2: 9)");
    }

    #[test]
    fn preorder_matches_execution_order_of_figure7() {
        let (_, _, tree) = tree_of(testprogs::SQRTEST);
        let names: Vec<Name> = tree
            .preorder()
            .into_iter()
            .map(|n| tree.node(n).name.clone())
            .collect();
        // Pre-order: Main, sqrtest, arrsum, loop, computs, comput1,
        // partialsums, sum1, increment, sum2, decrement, add, comput2,
        // square, test.
        assert_eq!(
            names,
            vec![
                "Main",
                "sqrtest",
                "arrsum",
                "loop in arrsum",
                "computs",
                "comput1",
                "partialsums",
                "sum1",
                "increment",
                "sum2",
                "decrement",
                "add",
                "comput2",
                "square",
                "test"
            ]
        );
    }

    #[test]
    fn figure8_pruned_tree() {
        // §8 step 2: slice on computs output 1 → Figure 8.
        let (m, t, tree) = tree_of(testprogs::SQRTEST);
        let computs_call = t
            .calls
            .iter()
            .find(|c| m.proc(c.proc).name == "computs")
            .unwrap()
            .id;
        let slice = dynamic_slice_output(&m, &t, computs_call, 0);
        let computs_node = tree.find_call(&m, "computs").unwrap();
        let pruned = tree.prune(computs_node, &slice);
        let names: Vec<Name> = pruned
            .preorder()
            .into_iter()
            .map(|n| pruned.node(n).name.clone())
            .collect();
        assert_eq!(
            names,
            vec![
                "computs",
                "comput1",
                "partialsums",
                "sum1",
                "increment",
                "sum2",
                "decrement",
                "add"
            ]
        );
    }

    #[test]
    fn figure9_pruned_tree() {
        // §8 step 4: slice on partialsums output 2 → Figure 9.
        let (m, t, tree) = tree_of(testprogs::SQRTEST);
        let ps_call = t
            .calls
            .iter()
            .find(|c| m.proc(c.proc).name == "partialsums")
            .unwrap()
            .id;
        let slice = dynamic_slice_output(&m, &t, ps_call, 1);
        let ps_node = tree.find_call(&m, "partialsums").unwrap();
        let pruned = tree.prune(ps_node, &slice);
        let names: Vec<Name> = pruned
            .preorder()
            .into_iter()
            .map(|n| pruned.node(n).name.clone())
            .collect();
        assert_eq!(names, vec!["partialsums", "sum2", "decrement"]);
    }

    #[test]
    fn pqr_tree_shows_nested_procedures() {
        let (m, _, tree) = tree_of(testprogs::PQR);
        let p = tree.find_call(&m, "p").unwrap();
        let names: Vec<&str> = tree
            .node(p)
            .children
            .iter()
            .map(|&c| tree.node(c).name.as_str())
            .collect();
        assert_eq!(names, vec!["q", "r"]);
        assert_eq!(
            tree.render_node(p),
            "p(In a: 5, In c: 7, Out b: 10, Out d: 10)"
        );
    }

    #[test]
    fn loop_node_snapshots_iterations() {
        let (m, _, tree) = tree_of(
            "program t; var i, s: integer;
             begin s := 0; for i := 1 to 3 do s := s + i end.",
        );
        let root = tree.root;
        let main = tree.node(root);
        assert_eq!(main.children.len(), 1);
        let l = tree.node(main.children[0]);
        assert!(matches!(l.kind, NodeKind::Loop { iterations: 4, .. }));
        // The final snapshot shows s = 6.
        let (_, last) = l.iterations.last().unwrap();
        assert!(last.iter().any(|(n, v)| n == "s" && *v == Value::Int(6)));
        let _ = m;
    }

    #[test]
    fn calls_inside_loops_nest_under_loop_node() {
        let (m, _, tree) = tree_of(
            "program t; var i, s: integer;
             procedure bump(var x: integer); begin x := x + 1 end;
             begin for i := 1 to 2 do bump(s) end.",
        );
        let root = tree.node(tree.root);
        assert_eq!(root.children.len(), 1);
        let l = tree.node(root.children[0]);
        assert!(matches!(l.kind, NodeKind::Loop { .. }));
        assert_eq!(l.children.len(), 2, "two bump calls inside the loop");
        assert!(l.children.iter().all(|&c| tree.node(c).name == "bump"));
        let _ = m;
    }

    #[test]
    fn global_side_effects_appear_as_in_out() {
        let (m, _, tree) = tree_of(testprogs::SECTION6_GLOBALS);
        let p = tree.find_call(&m, "p").unwrap();
        let rendered = tree.render_node(p);
        // p reads global x (In) and writes global z (Out); var param y is
        // written before read, so it appears only as Out.
        assert_eq!(rendered, "p(In x: 10, Out y: 11, Out z: 1)");
    }

    #[test]
    fn nonlocal_goto_marks_aborted_calls() {
        let (m, t, tree) = tree_of(testprogs::SECTION6_GOTO);
        let q = t.calls.iter().find(|c| m.proc(c.proc).name == "q").unwrap();
        assert!(q.via_goto);
        // Tree still contains the q node.
        assert!(tree.find_call(&m, "q").is_some());
    }

    #[test]
    fn render_tree_is_indented() {
        let (_, _, tree) = tree_of(testprogs::PQR);
        let s = tree.render(tree.root);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("pqr("));
        assert!(lines[1].starts_with("  p("));
        assert!(lines[2].starts_with("    q("));
    }

    #[test]
    fn prune_with_empty_slice_keeps_nothing_but_spine() {
        let (m, t, tree) = tree_of(testprogs::PQR);
        let r_call = t
            .calls
            .iter()
            .find(|c| m.proc(c.proc).name == "r")
            .unwrap()
            .id;
        let slice = dynamic_slice_output(&m, &t, r_call, 0);
        let root = tree.find_call(&m, "p").unwrap();
        let pruned = tree.prune(root, &slice);
        let names: Vec<Name> = pruned
            .preorder()
            .into_iter()
            .map(|n| pruned.node(n).name.clone())
            .collect();
        // q is irrelevant to r's output d.
        assert_eq!(names, vec!["p", "r"]);
    }

    #[test]
    fn prune_against_default_slice_yields_empty_tree() {
        // A slice retaining no calls and no events prunes everything,
        // including the requested root.
        let (_, _, tree) = tree_of(testprogs::PQR);
        let pruned = tree.prune(tree.root, &DynSlice::default());
        assert!(pruned.is_empty());
        assert_eq!(pruned.len(), 0);
    }

    #[test]
    fn prune_keeping_only_root_drops_all_children() {
        let (m, t, tree) = tree_of(testprogs::PQR);
        let p_node = tree.find_call(&m, "p").unwrap();
        let NodeKind::Call { call, .. } = tree.node(p_node).kind else {
            panic!("p is a call node");
        };
        let mut slice = DynSlice::default();
        slice.calls.insert(call);
        let pruned = tree.prune(p_node, &slice);
        assert_eq!(pruned.len(), 1);
        let root = pruned.node(pruned.root);
        assert_eq!(root.name, "p");
        assert!(root.children.is_empty());
        assert_eq!(root.depth, 0, "pruned root is re-rooted at depth 0");
        let _ = t;
    }

    #[test]
    fn prune_at_sliced_out_subtree_root_yields_empty_tree() {
        // Slice on r's output keeps p and r but not q; asking to prune
        // the q subtree therefore yields the empty tree even though q's
        // ancestors are retained by the slice.
        let (m, t, tree) = tree_of(testprogs::PQR);
        let r_call = t
            .calls
            .iter()
            .find(|c| m.proc(c.proc).name == "r")
            .unwrap()
            .id;
        let slice = dynamic_slice_output(&m, &t, r_call, 0);
        let q_node = tree.find_call(&m, "q").unwrap();
        let NodeKind::Call { call: q_call, .. } = tree.node(q_node).kind else {
            panic!("q is a call node");
        };
        assert!(!slice.keeps_call(q_call), "q must be sliced out");
        let pruned = tree.prune(q_node, &slice);
        assert!(pruned.is_empty());
    }
}
