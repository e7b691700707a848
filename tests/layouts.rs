//! The name indexes of `Layouts` resolve exactly as the program does:
//! for every class and every field name visible on it, the index finds
//! `Program::field_on_class`'s field, and the heap's name accessors land
//! on the slot `Layouts::slot_of_chain` gives that field (and each of its
//! struct members). Unknown classes, fields and members resolve to
//! `None`, and the slot tables still panic, naming the field, on a field
//! the class lacks. The global and local frames equal the layouts each
//! tier computed for itself before `Layouts` owned them.

use grafter_frontend::{compile, ClassId, FieldKind, GlobalId, MethodId, Program, Ty};
use grafter_runtime::{default_literal, Heap, Layouts, NodeId, Value};
use grafter_workloads::case_studies;

/// A hierarchy three classes deep with a struct field, an inherited
/// child and, once `shadowed` renames `b` to `a`, a shadowed field; some
/// class and field names share their first eight bytes, the prefix the
/// name indexes search on first.
const HIERARCHY: &str = r#"
    struct Pair { int x; int y; }
    tree class Base {
        child Base* kid;
        int a = 7;
        virtual traversal nop() {}
    }
    tree class Mid : Base { Pair p; int b = 3; }
    tree class Leaf : Mid {
        float f = 1.5; child Base* kid2;
        int neighbours; int neighbour; int neighbourhood;
    }
    tree class Container : Base { }
    tree class ContainerItem : Container { }
"#;

fn hierarchy() -> Program {
    compile(HIERARCHY).unwrap()
}

/// [`HIERARCHY`] with `Mid::b` renamed to `a`, so `Mid` and `Leaf` see
/// their own `a` over `Base::a` (sema rejects the redeclaration in
/// source, but `Program::field_on_class` defines the rule).
fn shadowed() -> Program {
    let mut p = hierarchy();
    let mid = p.class_by_name("Mid").unwrap();
    let b = p.field_on_class(mid, "b").unwrap();
    p.fields[b.index()].name = "a".into();
    p
}

/// Checks that `name` reads and writes slot `slot` of `node`.
fn check_slot(heap: &mut Heap, node: NodeId, name: &str, slot: usize) {
    let marker = Value::Int(1_000 + slot as i64);
    heap.set(node, slot, marker);
    assert_eq!(heap.get_by_name(node, name), Some(marker), "{name}");
    heap.set_by_name(node, name, Value::Int(-1)).unwrap();
    assert_eq!(heap.get(node, slot), Value::Int(-1), "{name}");
}

/// Checks every class and visible field name of `program`; returns the
/// number of names checked.
fn check_program(program: &Program) -> usize {
    let layouts = Layouts::new(program);
    let mut heap = Heap::new(program);
    let mut checked = 0;
    for (ci, decl) in program.classes.iter().enumerate() {
        let class = ClassId(ci as u32);
        assert_eq!(layouts.class_by_name(&decl.name), Some(class));
        let node = heap.alloc_by_name(&decl.name).unwrap();
        assert_eq!(heap.class_of(node), class);
        for f in program.all_fields(class) {
            let name = program.fields[f.index()].name.as_str();
            let visible = program.field_on_class(class, name).unwrap();
            assert_eq!(
                layouts.field_by_name(class, name),
                Some(visible),
                "{}.{name}",
                decl.name
            );
            check_slot(
                &mut heap,
                node,
                name,
                layouts.slot_of_chain(class, &[visible]),
            );
            checked += 1;
            match program.fields[visible.index()].kind {
                FieldKind::Data(Ty::Struct(st)) => {
                    for &m in &program.structs[st.index()].members {
                        let chain = format!("{name}.{}", program.fields[m.index()].name);
                        let slot = layouts.slot_of_chain(class, &[visible, m]);
                        check_slot(&mut heap, node, &chain, slot);
                        checked += 1;
                        // A member is no struct: a third part names nothing.
                        let deeper = format!("{chain}.{}", program.fields[m.index()].name);
                        assert_eq!(heap.get_by_name(node, &deeper), None, "{deeper}");
                    }
                    let unknown = format!("{name}.no_such_member");
                    assert_eq!(heap.get_by_name(node, &unknown), None, "{unknown}");
                }
                _ => {
                    let chain = format!("{name}.x");
                    assert_eq!(heap.get_by_name(node, &chain), None, "{chain}");
                }
            }
        }
        assert_eq!(layouts.field_by_name(class, "no_such_field"), None);
        assert_eq!(heap.get_by_name(node, "no_such_field"), None);
        assert_eq!(heap.set_by_name(node, "no_such_field", Value::Int(0)), None);
        assert_eq!(heap.child_by_name(node, "no_such_field"), None);
    }
    assert_eq!(layouts.class_by_name("NoSuchClass"), None);
    assert_eq!(heap.alloc_by_name("NoSuchClass"), None);
    checked
}

#[test]
fn name_index_agrees_with_the_program_on_the_case_studies() {
    for case in case_studies() {
        let checked = check_program(case.compiled.program());
        assert!(checked > 10, "{}: {checked} names", case.name);
    }
}

#[test]
fn name_index_resolves_inherited_struct_and_shadowed_fields() {
    // Base: kid, a. Mid adds p, p.x, p.y, b. Leaf adds f, kid2 and the
    // three neighbour fields. The containers inherit kid, a.
    assert_eq!(check_program(&hierarchy()), 2 + 6 + 11 + 2 + 2);
    let p = shadowed();
    let layouts = Layouts::new(&p);
    let [base, mid, leaf] = ["Base", "Mid", "Leaf"].map(|c| p.class_by_name(c).unwrap());
    let base_a = p.field_on_class(base, "a").unwrap();
    let mid_a = p.field_on_class(mid, "a").unwrap();
    assert_ne!(base_a, mid_a);
    assert_eq!(layouts.field_by_name(base, "a"), Some(base_a));
    assert_eq!(layouts.field_by_name(mid, "a"), Some(mid_a));
    assert_eq!(layouts.field_by_name(leaf, "a"), Some(mid_a));
    assert_eq!(layouts.field_by_name(mid, "b"), None);
    for unknown in ["neighbou", "neighbourz", "neighbourhoods"] {
        assert_eq!(layouts.field_by_name(leaf, unknown), None, "{unknown}");
    }
    for unknown in ["Containe", "ContainerItems", "Leaf "] {
        assert_eq!(layouts.class_by_name(unknown), None, "{unknown}");
    }
    // Leaf inherits kid, a (Base), p.x, p.y, a (Mid), then has f, kid2.
    let mut heap = Heap::new(&p);
    let node = heap.alloc(leaf);
    check_slot(&mut heap, node, "a", layouts.slot_of(leaf, mid_a));
    check_slot(&mut heap, node, "p.y", 3);
    check_slot(&mut heap, node, "kid2", 6);
    check_program(&p);
}

#[test]
#[should_panic(expected = "class `Base` has no field `p`")]
fn slot_of_a_field_the_class_lacks_panics_naming_it() {
    let p = hierarchy();
    let layouts = Layouts::new(&p);
    let (base, mid) = (
        p.class_by_name("Base").unwrap(),
        p.class_by_name("Mid").unwrap(),
    );
    let pf = p.field_on_class(mid, "p").unwrap();
    layouts.slot_of(base, pf);
}

#[test]
#[should_panic(expected = "field `a` is not a struct member")]
fn member_offset_of_a_field_outside_every_struct_panics_naming_it() {
    let p = hierarchy();
    let layouts = Layouts::new(&p);
    let base = p.class_by_name("Base").unwrap();
    layouts.member_offset(p.field_on_class(base, "a").unwrap());
}

/// Each local's frame slot and the frame size of `method`, as the
/// interpreter and VM lowering each computed them per method.
fn per_tier_local_frame(program: &Program, method: MethodId) -> (Vec<usize>, usize) {
    let m = &program.methods[method.index()];
    let mut offsets = Vec::with_capacity(m.locals.len());
    let mut cur = 0usize;
    for lv in &m.locals {
        offsets.push(cur);
        cur += match lv.ty {
            Ty::Struct(s) => program.structs[s.index()].members.len(),
            _ => 1,
        };
    }
    (offsets, cur)
}

/// The initial global frame and each global's first slot, as the
/// interpreter and VM lowering each computed them per program.
fn per_tier_global_frame(program: &Program) -> (Vec<Value>, Vec<usize>) {
    let mut values = Vec::new();
    let mut offsets = Vec::with_capacity(program.globals.len());
    for g in &program.globals {
        offsets.push(values.len());
        match g.ty {
            Ty::Struct(s) => {
                for &m in &program.structs[s.index()].members {
                    let ty = match program.fields[m.index()].kind {
                        FieldKind::Data(t) => t,
                        FieldKind::Child(_) => unreachable!("struct members are data"),
                    };
                    values.push(default_literal(ty, None));
                }
            }
            ty => values.push(default_literal(ty, g.default)),
        }
    }
    (values, offsets)
}

/// Checks the global and local frames of `program`'s layouts against the
/// per-tier ones; returns the number of global slots.
fn check_frames(program: &Program) -> usize {
    let layouts = Layouts::new(program);
    let (init, offsets) = per_tier_global_frame(program);
    assert_eq!(layouts.initial_globals(), init.as_slice());
    for (g, &offset) in offsets.iter().enumerate() {
        assert_eq!(layouts.global_offset(GlobalId(g as u32)), offset);
    }
    let names = layouts.global_slot_names();
    assert_eq!(names.len(), init.len());
    for (slot, name) in names.iter().enumerate() {
        assert_eq!(layouts.global_slot(name), Some(slot), "{name}");
    }
    for m in 0..program.methods.len() {
        let method = MethodId(m as u32);
        let (offsets, size) = per_tier_local_frame(program, method);
        let shared: Vec<usize> = layouts
            .local_offsets(method)
            .iter()
            .map(|&o| o as usize)
            .collect();
        assert_eq!(shared, offsets, "{}", program.methods[m].name);
        assert_eq!(layouts.frame_size(method), size);
    }
    init.len()
}

#[test]
fn frames_equal_the_per_tier_layouts() {
    for case in case_studies() {
        check_frames(case.compiled.program());
    }
    let p = compile(
        r#"
        struct Pt { int x; float y; }
        global float SCALE = 2;
        global Pt P;
        global bool ON = true;
        global int N = 7;
        tree class C {
            child C* next;
            int v = 0;
            virtual traversal t(int a, float b) {
                Pt r;
                float s = SCALE;
                r.y = b + a;
                v = r.x + N;
                this->next->t(a, r.y);
            }
        }
        tree class D : C { traversal t(int a, float b) { int k = a; v = k; } }
        "#,
    )
    .unwrap();
    assert_eq!(check_frames(&p), 5);
    let layouts = Layouts::new(&p);
    let names: Vec<&str> = layouts.global_slot_names().iter().map(|n| &**n).collect();
    assert_eq!(names, ["SCALE", "P.x", "P.y", "ON", "N"]);
    assert_eq!(
        layouts.initial_globals(),
        [
            Value::Float(2.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Bool(true),
            Value::Int(7)
        ]
    );
    // A struct global is its members: its bare name names no slot.
    assert_eq!(layouts.global_slot("P"), None);
    assert_eq!(layouts.global_slot("P.z"), None);
    let t = |class: &str| p.classes[p.class_by_name(class).unwrap().index()].methods[0];
    // C::t: a, b, then r.x, r.y, s.
    assert_eq!(layouts.local_offsets(t("C")), [0, 1, 2, 4]);
    assert_eq!(layouts.frame_size(t("C")), 5);
    // D::t: a, b, then k.
    assert_eq!(layouts.local_offsets(t("D")), [0, 1, 2]);
    assert_eq!(layouts.frame_size(t("D")), 3);
}
