//! Environments `ρ ∈ Env = Ide → V` (Figure 2, *Alg*).
//!
//! A persistent association structure with two kinds of frames:
//!
//! * plain frames binding one identifier to a value;
//! * **rec frames** realizing the paper's `letrec` equation
//!   `ρ' = ρ[f ↦ (λv. E⟦e₁⟧ ρ'[x↦v]) in Fun]` without reference cycles:
//!   the frame stores the *syntax* of each lambda-valued binding, and a
//!   lookup of `f` constructs the closure with the environment rooted at
//!   that very frame. Since the closure's environment reaches the rec
//!   frame again, recursion unfolds exactly as the fixpoint does — and no
//!   `RefCell` knot is needed (the `repro_why` concern of the brief).
//!
//! At the bottom of every environment sits the initial environment of
//! primitives (resolved by name, so it costs nothing to construct).
//!
//! # Lookup fast paths
//!
//! Two lookup disciplines coexist, fastest first:
//!
//! * [`Env::lookup_addr`] — follows a [`VarAddr`] computed by the static
//!   resolver (`crate::resolve`): pointer hops and an indexed read, **zero
//!   name comparisons** of any kind;
//! * [`Env::lookup`] — walks the chain comparing interned symbols (one
//!   `u32` compare per frame) and finishes with a hashed primitive lookup;
//!   used for occurrences the resolver could not address (free variables
//!   of dynamically-shaped `letrec` value bindings, REPL-style
//!   environments) and for monitors reading variables by name.

use crate::prims::Prim;
use crate::value::{Closure, Value};
use monsem_syntax::{Binding, Expr, Ident, Lambda, VarAddr};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Debug)]
pub(crate) enum Node {
    /// `ρ[x ↦ v]`
    Frame {
        name: Ident,
        value: Value,
        parent: Env,
    },
    /// One frame per `letrec`, holding every lambda-valued binding.
    Rec {
        bindings: Arc<Vec<(Ident, Arc<Lambda>)>>,
        parent: Env,
    },
}

/// A persistent environment. Cloning is O(1).
///
/// ```
/// use monsem_core::{Env, Value};
/// use monsem_syntax::Ident;
/// let outer = Env::empty().extend(Ident::new("x"), Value::Int(1));
/// let inner = outer.extend(Ident::new("x"), Value::Int(2));
/// assert_eq!(inner.lookup(&Ident::new("x")), Some(Value::Int(2)));
/// assert_eq!(outer.lookup(&Ident::new("x")), Some(Value::Int(1))); // persistent
/// assert!(matches!(outer.lookup(&Ident::new("+")), Some(Value::Prim(..))));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Env(pub(crate) Option<Rc<Node>>);

impl Env {
    /// The initial environment: primitives only.
    pub fn empty() -> Env {
        Env(None)
    }

    /// `ρ[name ↦ value]`.
    pub fn extend(&self, name: Ident, value: Value) -> Env {
        Env(Some(Rc::new(Node::Frame {
            name,
            value,
            parent: self.clone(),
        })))
    }

    /// Pushes a rec frame for the lambda-valued bindings of a `letrec`.
    ///
    /// Looking any of these names up yields a closure whose environment is
    /// rooted at this frame, tying the recursive knot.
    pub fn extend_rec(&self, bindings: Arc<Vec<(Ident, Arc<Lambda>)>>) -> Env {
        Env(Some(Rc::new(Node::Rec {
            bindings,
            parent: self.clone(),
        })))
    }

    /// Looks `name` up, falling back to the primitive table.
    ///
    /// Frame comparisons are interned-symbol compares (one `u32` each); the
    /// primitive fallback is a hashed symbol lookup.
    pub fn lookup(&self, name: &Ident) -> Option<Value> {
        let mut cur = self;
        loop {
            match cur.0.as_deref() {
                Some(Node::Frame {
                    name: n,
                    value,
                    parent,
                }) => {
                    if n == name {
                        return Some(value.clone());
                    }
                    cur = parent;
                }
                Some(Node::Rec { bindings, parent }) => {
                    if let Some(slot) = bindings.iter().position(|(n, _)| n == name) {
                        return Some(cur.rec_closure(bindings, slot));
                    }
                    cur = parent;
                }
                None => return Prim::by_ident(name).map(Value::prim),
            }
        }
    }

    /// Follows a lexical address computed by `crate::resolve`: `depth`
    /// pointer hops, then an indexed read. No name comparison of any kind
    /// happens on this path.
    ///
    /// # Panics
    ///
    /// If the address does not fit this environment. The resolver only
    /// emits addresses for binders it tracked through every engine's
    /// uniform frame discipline, so a panic here is a resolver bug, not a
    /// program error.
    pub fn lookup_addr(&self, addr: &VarAddr) -> Value {
        let (depth, slot) = match addr {
            VarAddr::Frame { depth } => (*depth, None),
            VarAddr::Rec { depth, slot } => (*depth, Some(*slot as usize)),
            // Statically proved to live below every frame: one indexed
            // read into the primitive table, no chain walk at all.
            VarAddr::Base { slot } => return Value::prim(Prim::ALL[*slot as usize].1),
        };
        let mut cur = self;
        for _ in 0..depth {
            cur = match cur.0.as_deref() {
                Some(Node::Frame { parent, .. }) | Some(Node::Rec { parent, .. }) => parent,
                None => panic!("lexical address escapes the environment"),
            };
        }
        match (cur.0.as_deref(), slot) {
            (Some(Node::Frame { value, .. }), None) => value.clone(),
            (Some(Node::Rec { bindings, .. }), Some(slot)) => cur.rec_closure(bindings, slot),
            _ => panic!("lexical address shape does not match the environment"),
        }
    }

    /// The closure for slot `slot` of the rec frame at `self`, rooted at
    /// this very frame (the knot of the `letrec` fixpoint).
    fn rec_closure(&self, bindings: &[(Ident, Arc<Lambda>)], slot: usize) -> Value {
        let (_, lam) = &bindings[slot];
        Value::Closure(Rc::new(Closure {
            param: lam.param.clone(),
            body: lam.body.clone(),
            env: self.clone(),
        }))
    }

    /// Depth of the environment chain (frames, not bindings) — useful for
    /// diagnostics and tests.
    pub fn depth(&self) -> usize {
        let mut n = 0;
        let mut cur = self;
        while let Some(node) = cur.0.as_deref() {
            n += 1;
            cur = match node {
                Node::Frame { parent, .. } | Node::Rec { parent, .. } => parent,
            };
        }
        n
    }
}

impl Drop for Env {
    /// Deep environment chains are freed iteratively, like list spines in
    /// `value.rs` (`Tail`'s `Drop`). Without this, dropping the last clone
    /// of a ~10⁶-frame environment — or of a closure whose captured
    /// environment captures another closure, and so on — recurses once per
    /// frame and overflows the stack.
    ///
    /// The worklist also unlinks uniquely-owned closure environments and
    /// pending-thunk environments reachable from frame values, because
    /// those are exactly the edges by which an `Env` chain re-enters
    /// another `Env` chain.
    fn drop(&mut self) {
        // Fast path: the empty environment, or a chain still shared with
        // another clone — either way nothing is actually freed here.
        let Some(rc) = self.0.take() else { return };
        if Rc::strong_count(&rc) > 1 {
            return;
        }
        let mut work: Vec<Rc<Node>> = vec![rc];
        while let Some(rc) = work.pop() {
            let Ok(node) = Rc::try_unwrap(rc) else {
                continue;
            };
            let (value, mut parent) = match node {
                Node::Frame { value, parent, .. } => (Some(value), parent),
                Node::Rec { parent, .. } => (None, parent),
            };
            if let Some(p) = parent.0.take() {
                work.push(p);
            }
            match value {
                Some(Value::Closure(c)) => {
                    if let Ok(mut c) = Rc::try_unwrap(c) {
                        if let Some(p) = c.env.0.take() {
                            work.push(p);
                        }
                    }
                }
                Some(Value::Thunk(t)) => {
                    if let Ok(cell) = Rc::try_unwrap(t) {
                        if let crate::value::ThunkState::Pending { mut env, .. } = cell.into_inner()
                        {
                            if let Some(p) = env.0.take() {
                                work.push(p);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        let mut cur = self;
        let mut first = true;
        while let Some(node) = cur.0.as_deref() {
            match node {
                Node::Frame {
                    name,
                    value,
                    parent,
                } => {
                    if !first {
                        f.write_str(", ")?;
                    }
                    write!(f, "{name} ↦ {value}")?;
                    first = false;
                    cur = parent;
                }
                Node::Rec { bindings, parent } => {
                    for (name, _) in bindings.iter() {
                        if !first {
                            f.write_str(", ")?;
                        }
                        write!(f, "{name} ↦ <rec>")?;
                        first = false;
                    }
                    cur = parent;
                }
            }
        }
        f.write_str("]")
    }
}

/// Extracts the lambda under any annotations, for rec-frame eligibility.
/// Annotations wrapped directly around the lambda are *also* kept by the
/// caller (evaluated once at binding time); recursion goes through the
/// stripped lambda.
pub fn lambda_of(e: &Expr) -> Option<Arc<Lambda>> {
    match e.strip_annotations() {
        Expr::Lambda(l) => Some(Arc::new(l.clone())),
        _ => None,
    }
}

/// The evaluation plan every engine uses for `letrec f₁ = e₁ and … in e`
/// (the paper's single-lambda form generalized to the mixed bindings its
/// §8 examples use):
///
/// 1. non-lambda bindings are evaluated in source order (each sees the
///    previous ones, **not** the group's functions);
/// 2. the rec frame for the (stripped) lambda bindings is pushed — so
///    recursive closures *do* see the value bindings, matching the
///    intuition that `letrec base = 10 and f = λx. … base …` works;
/// 3. lambda bindings that carry annotations are then evaluated once (the
///    annotation is a monitoring event that must fire), shadowing their
///    rec-frame entry with the rec-frame closure (see [`LetrecPlan::bind`]);
/// 4. the body runs.
#[derive(Debug)]
pub struct LetrecPlan {
    /// Bindings to evaluate: values first (source order), then annotated
    /// lambda bindings (source order).
    pub ordered: Vec<Binding>,
    /// How many of `ordered` are value bindings — the rec frame is pushed
    /// after exactly this many bindings have been evaluated.
    pub values: usize,
    /// The rec frame contents (stripped lambdas), possibly empty.
    pub rec: Arc<Vec<(Ident, Arc<Lambda>)>>,
}

impl LetrecPlan {
    /// Computes the plan for a binding group.
    pub fn of(bindings: &[Binding]) -> LetrecPlan {
        let mut ordered: Vec<Binding> = Vec::new();
        let mut annotated: Vec<Binding> = Vec::new();
        let mut rec: Vec<(Ident, Arc<Lambda>)> = Vec::new();
        for b in bindings {
            match lambda_of(&b.value) {
                Some(l) => {
                    rec.push((b.name.clone(), l));
                    if matches!(&*b.value, Expr::Ann(..)) {
                        annotated.push(b.clone());
                    }
                }
                None => ordered.push(b.clone()),
            }
        }
        let values = ordered.len();
        ordered.extend(annotated);
        LetrecPlan {
            ordered,
            values,
            rec: Arc::new(rec),
        }
    }

    /// Pushes the rec frame if the group has any functions.
    pub fn push_rec(&self, env: &Env) -> Env {
        if self.rec.is_empty() {
            env.clone()
        } else {
            env.extend_rec(self.rec.clone())
        }
    }

    /// Extends `env` with the `index`-th planned binding, given the value
    /// its right-hand side evaluated to.
    ///
    /// Value bindings (`index < values`) bind that value. Annotated lambda
    /// bindings bind the **rec-frame closure** instead: evaluating the
    /// right-hand side existed only to fire the annotation's monitoring
    /// events, and the rec closure is the same function rooted at the one
    /// environment shape the static resolver predicts for the group's
    /// bodies. (Before lexical addressing the shadow frame held the freshly
    /// evaluated closure — an *identical* closure over a slightly taller
    /// environment; observable behaviour is unchanged, but a single body
    /// can now only run in a single frame layout.)
    pub fn bind(&self, env: &Env, index: usize, value: Value) -> Env {
        let name = &self.ordered[index].name;
        if index < self.values {
            return env.extend(name.clone(), value);
        }
        let rec_bound = env.lookup(name).unwrap_or(value);
        env.extend(name.clone(), rec_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monsem_syntax::parse_expr;

    #[test]
    fn lookup_finds_innermost_binding() {
        let env = Env::empty()
            .extend(Ident::new("x"), Value::Int(1))
            .extend(Ident::new("x"), Value::Int(2));
        assert_eq!(env.lookup(&Ident::new("x")), Some(Value::Int(2)));
    }

    #[test]
    fn primitives_resolve_at_the_base() {
        let env = Env::empty();
        assert!(matches!(
            env.lookup(&Ident::new("+")),
            Some(Value::Prim(Prim::Add, _))
        ));
        assert_eq!(env.lookup(&Ident::new("no-such")), None);
    }

    #[test]
    fn user_bindings_shadow_primitives() {
        let env = Env::empty().extend(Ident::new("+"), Value::Int(9));
        assert_eq!(env.lookup(&Ident::new("+")), Some(Value::Int(9)));
    }

    #[test]
    fn rec_frame_ties_the_knot() {
        // letrec f = lambda x. f — looking f up must yield a closure whose
        // environment again resolves f.
        let lam = match parse_expr("lambda x. f").unwrap() {
            Expr::Lambda(l) => Arc::new(l),
            _ => unreachable!(),
        };
        let env = Env::empty().extend_rec(Arc::new(vec![(Ident::new("f"), lam)]));
        let v = env.lookup(&Ident::new("f")).unwrap();
        match v {
            Value::Closure(c) => {
                let inner = c.env.lookup(&Ident::new("f")).unwrap();
                assert!(matches!(inner, Value::Closure(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn display_shows_bindings_in_scope_order() {
        let env = Env::empty()
            .extend(Ident::new("x"), Value::Int(1))
            .extend(Ident::new("y"), Value::Int(2));
        assert_eq!(env.to_string(), "[y ↦ 2, x ↦ 1]");
    }

    /// A million-frame chain must free without recursing (each frame used
    /// to add one stack frame to the drop, overflowing around ~10⁵).
    #[test]
    fn deep_frame_chain_drops_iteratively() {
        let mut env = Env::empty();
        for i in 0..1_000_000u32 {
            env = env.extend(Ident::new("x"), Value::Int(i as i64));
        }
        assert_eq!(env.depth(), 1_000_000);
        drop(env);
    }

    /// Rec frames interleaved with plain frames take the same worklist.
    #[test]
    fn deep_rec_chain_drops_iteratively() {
        let lam = match parse_expr("lambda x. x").unwrap() {
            Expr::Lambda(l) => Arc::new(l),
            _ => unreachable!(),
        };
        let bindings = Arc::new(vec![(Ident::new("f"), lam)]);
        let mut env = Env::empty();
        for _ in 0..500_000 {
            env = env.extend_rec(bindings.clone());
            env = env.extend(Ident::new("y"), Value::Unit);
        }
        drop(env);
    }

    /// Closure chains: frame → closure → env → frame → closure → … This
    /// re-enters `Env` through `Closure::env`, which the worklist unlinks.
    #[test]
    fn deep_closure_chain_drops_iteratively() {
        let body = match parse_expr("lambda x. x").unwrap() {
            Expr::Lambda(l) => l.body,
            _ => unreachable!(),
        };
        let mut v = Value::Unit;
        for _ in 0..500_000 {
            let env = Env::empty().extend(Ident::new("f"), v);
            v = Value::Closure(Rc::new(Closure {
                param: Ident::new("x"),
                body: body.clone(),
                env,
            }));
        }
        drop(v);
    }

    /// Pending thunks capture environments too (lazy module); their chains
    /// must also free without recursion.
    #[test]
    fn deep_thunk_chain_drops_iteratively() {
        use crate::value::ThunkState;
        use std::cell::RefCell;
        let expr = Arc::new(parse_expr("1 + 2").unwrap());
        let mut v = Value::Unit;
        for _ in 0..500_000 {
            let env = Env::empty().extend(Ident::new("t"), v);
            v = Value::Thunk(Rc::new(RefCell::new(ThunkState::Pending {
                expr: expr.clone(),
                env,
            })));
        }
        drop(v);
    }

    #[test]
    fn shared_chains_survive_a_clone_dropping() {
        let mut env = Env::empty();
        for i in 0..1000 {
            env = env.extend(Ident::new("x"), Value::Int(i));
        }
        let keep = env.clone();
        drop(env);
        assert_eq!(keep.lookup(&Ident::new("x")), Some(Value::Int(999)));
        assert_eq!(keep.depth(), 1000);
    }

    #[test]
    fn lambda_of_sees_through_annotations() {
        let e = parse_expr("{p}:lambda x. x").unwrap();
        assert!(lambda_of(&e).is_some());
        assert!(lambda_of(&parse_expr("1 + 2").unwrap()).is_none());
    }
}
