open Exsec_core

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "hi"; "lo" ]
let universe = Category.universe [ "c" ]
let bottom = Security_class.bottom hierarchy universe
let owner = Principal.individual "owner"
let meta () = Meta.make ~owner bottom

let make () = Namespace.create ~root_meta:(meta ()) ()

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Namespace.pp_error e)

let test_add_and_find () =
  let ns = make () in
  let _ = ok "dir" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 42) in
  let node = ok "find" (Namespace.find ns (Path.of_string "/a/x")) in
  check "payload" true (Namespace.payload node = Some 42);
  check "is not dir" false (Namespace.is_dir node);
  check "mem" true (Namespace.mem ns (Path.of_string "/a"));
  check "not mem" false (Namespace.mem ns (Path.of_string "/b"))

let test_find_root () =
  let ns = make () in
  let node = ok "root" (Namespace.find ns Path.root) in
  check "root is dir" true (Namespace.is_dir node);
  check "root path" true (Path.is_root (Namespace.path node))

let test_missing_parent () =
  let ns = make () in
  match Namespace.add_dir ns (Path.of_string "/a/b") ~meta:(meta ()) with
  | Error (Namespace.Not_found _) -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_duplicate () =
  let ns = make () in
  let _ = ok "first" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  match Namespace.add_leaf ns (Path.of_string "/a") ~meta:(meta ()) 0 with
  | Error (Namespace.Already_exists _) -> ()
  | _ -> Alcotest.fail "expected Already_exists"

let test_leaf_is_not_a_directory () =
  let ns = make () in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/x") ~meta:(meta ()) 1) in
  (match Namespace.add_dir ns (Path.of_string "/x/y") ~meta:(meta ()) with
  | Error (Namespace.Not_a_directory _) -> ()
  | _ -> Alcotest.fail "expected Not_a_directory on add");
  match Namespace.find ns (Path.of_string "/x/y") with
  | Error (Namespace.Not_a_directory _) -> ()
  | _ -> Alcotest.fail "expected Not_a_directory on find"

let test_children_sorted () =
  let ns = make () in
  List.iter
    (fun name ->
      ignore (ok name (Namespace.add_dir ns (Path.of_string ("/" ^ name)) ~meta:(meta ()))))
    [ "zebra"; "apple"; "mango" ];
  let root = ok "root" (Namespace.find ns Path.root) in
  Alcotest.(check (list string))
    "sorted" [ "apple"; "mango"; "zebra" ]
    (List.map fst (Namespace.children root))

let test_remove () =
  let ns = make () in
  let _ = ok "dir" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "leaf" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 1) in
  (* Non-empty directory refuses. *)
  (match Namespace.remove ns (Path.of_string "/a") with
  | Error (Namespace.Directory_not_empty _) -> ()
  | _ -> Alcotest.fail "expected Directory_not_empty");
  let () = ok "rm leaf" (Namespace.remove ns (Path.of_string "/a/x")) in
  let () = ok "rm dir" (Namespace.remove ns (Path.of_string "/a")) in
  check "gone" false (Namespace.mem ns (Path.of_string "/a"));
  match Namespace.remove ns (Path.of_string "/a") with
  | Error (Namespace.Not_found _) -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_size_iter_fold () =
  let ns = make () in
  let _ = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "b" (Namespace.add_dir ns (Path.of_string "/a/b") ~meta:(meta ())) in
  let _ = ok "x" (Namespace.add_leaf ns (Path.of_string "/a/b/x") ~meta:(meta ()) 7) in
  let _ = ok "y" (Namespace.add_leaf ns (Path.of_string "/a/y") ~meta:(meta ()) 8) in
  Alcotest.(check int) "size" 5 (Namespace.size ns);
  let leaves = Namespace.fold ns ~init:0 ~f:(fun n node -> if Namespace.is_dir node then n else n + 1) in
  Alcotest.(check int) "leaves" 2 leaves;
  let sum =
    Namespace.fold ns ~init:0 ~f:(fun n node ->
        match Namespace.payload node with
        | Some v -> n + v
        | None -> n)
  in
  Alcotest.(check int) "payload sum" 15 sum

let test_per_node_meta_is_independent () =
  let ns = make () in
  let m1 = meta () in
  let m2 = meta () in
  let _ = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:m1) in
  let _ = ok "b" (Namespace.add_dir ns (Path.of_string "/b") ~meta:m2) in
  Meta.set_acl_raw m1 (Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.Read ] ]);
  let node_b = ok "find b" (Namespace.find ns (Path.of_string "/b")) in
  check "b unchanged" true (Acl.equal (Namespace.meta node_b).Meta.acl (Acl.owner_default owner))

let prop_insert_then_find =
  let seg = QCheck.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 1 3)) in
  let arb = QCheck.make QCheck.Gen.(list_size (int_range 1 20) (list_size (int_range 1 4) seg)) in
  QCheck.Test.make ~name:"every inserted path is findable" ~count:100 arb (fun paths ->
      let ns = make () in
      let inserted =
        List.filter_map
          (fun segments ->
            let path = Path.of_segments segments in
            (* Ensure ancestors exist as dirs. *)
            let rec ensure = function
              | [] -> ()
              | prefix ->
                (match Path.parent (Path.of_segments prefix) with
                | Some parent -> ensure (Path.segments parent)
                | None -> ());
                ignore (Namespace.add_dir ns (Path.of_segments prefix) ~meta:(meta ()))
            in
            (match Path.parent path with
            | Some parent -> ensure (Path.segments parent)
            | None -> ());
            match Namespace.add_leaf ns path ~meta:(meta ()) 0 with
            | Ok _ -> Some path
            | Error _ -> None)
          paths
      in
      List.for_all (Namespace.mem ns) inserted)

let test_counter_size () =
  (* [size] is a maintained counter now; hold it to the fold it
     replaced across adds, failed adds and removes. *)
  let ns = make () in
  let folded () = Namespace.fold ns ~init:0 ~f:(fun n _ -> n + 1) in
  let agree label = Alcotest.(check int) label (folded ()) (Namespace.size ns) in
  agree "fresh";
  let _ = ok "a" (Namespace.add_dir ns (Path.of_string "/a") ~meta:(meta ())) in
  let _ = ok "x" (Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 1) in
  agree "after adds";
  (match Namespace.add_leaf ns (Path.of_string "/a/x") ~meta:(meta ()) 2 with
  | Ok _ -> Alcotest.fail "duplicate accepted"
  | Error _ -> ());
  agree "failed add does not count";
  (match Namespace.remove ns (Path.of_string "/a") with
  | Ok () -> Alcotest.fail "non-empty dir removed"
  | Error _ -> ());
  agree "failed remove does not count";
  let () = ok "rm x" (Namespace.remove ns (Path.of_string "/a/x")) in
  let () = ok "rm a" (Namespace.remove ns (Path.of_string "/a")) in
  agree "after removes";
  Alcotest.(check int) "back to just the root" 1 (Namespace.size ns)

let test_add_at_parent () =
  (* The O(log fanout) bulk-populate inserts: children of an already-resolved
     parent, no path re-walk — and the same error discipline as the
     path-addressed inserts. *)
  let ns = make () in
  let dir = ok "dir" (Namespace.add_dir_at ns (Namespace.root ns) "a" ~meta:(meta ())) in
  let leaf = ok "leaf" (Namespace.add_leaf_at ns dir "x" ~meta:(meta ()) 7) in
  check "path composed from parent" true
    (Path.equal (Namespace.path leaf) (Path.of_string "/a/x"));
  check "findable through the tree" true (Namespace.mem ns (Path.of_string "/a/x"));
  Alcotest.(check int) "counted" 3 (Namespace.size ns);
  (match Namespace.add_dir_at ns (Namespace.root ns) "a" ~meta:(meta ()) with
  | Ok _ -> Alcotest.fail "duplicate child accepted"
  | Error (Namespace.Already_exists _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Namespace.pp_error e);
  (match Namespace.add_dir_at ns leaf "y" ~meta:(meta ()) with
  | Ok _ -> Alcotest.fail "child of a leaf accepted"
  | Error (Namespace.Not_a_directory _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Namespace.pp_error e);
  Alcotest.(check int) "failures uncounted" 3 (Namespace.size ns)

let test_add_at_foreign_parent () =
  (* A parent resolved from a DIFFERENT tree is rejected outright:
     accepting it would mutate the other tree's structure while
     incrementing this tree's node counter, silently corrupting the
     size of both. *)
  let ns = make () in
  let other = make () in
  let foreign = ok "other dir" (Namespace.add_dir_at other (Namespace.root other) "a" ~meta:(meta ())) in
  (match Namespace.add_dir_at ns foreign "b" ~meta:(meta ()) with
  | (exception Invalid_argument _) -> ()
  | Ok _ -> Alcotest.fail "foreign parent accepted"
  | Error e -> Alcotest.failf "error instead of rejection: %a" Namespace.pp_error e);
  (match Namespace.add_leaf_at ns foreign "x" ~meta:(meta ()) 1 with
  | (exception Invalid_argument _) -> ()
  | Ok _ -> Alcotest.fail "foreign parent accepted"
  | Error e -> Alcotest.failf "error instead of rejection: %a" Namespace.pp_error e);
  Alcotest.(check int) "this tree unchanged" 1 (Namespace.size ns);
  Alcotest.(check int) "other tree unchanged" 2 (Namespace.size other);
  check "nothing appeared under the foreign node" false
    (Namespace.mem other (Path.of_string "/a/b"))

let suite =
  [
    Alcotest.test_case "add and find" `Quick test_add_and_find;
    Alcotest.test_case "size counter tracks the fold" `Quick test_counter_size;
    Alcotest.test_case "insert under a resolved parent" `Quick test_add_at_parent;
    Alcotest.test_case "foreign parent rejected" `Quick test_add_at_foreign_parent;
    Alcotest.test_case "find root" `Quick test_find_root;
    Alcotest.test_case "missing parent" `Quick test_missing_parent;
    Alcotest.test_case "duplicate" `Quick test_duplicate;
    Alcotest.test_case "leaf is not a dir" `Quick test_leaf_is_not_a_directory;
    Alcotest.test_case "children sorted" `Quick test_children_sorted;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "size/iter/fold" `Quick test_size_iter_fold;
    Alcotest.test_case "independent metadata" `Quick test_per_node_meta_is_independent;
    QCheck_alcotest.to_alcotest prop_insert_then_find;
  ]
