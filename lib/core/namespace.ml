module Names = Map.Make (String)

(* A directory is an immutable name-ordered map behind an Atomic,
   replaced by compare-and-set (as in Quota): any domain may read it. *)
type 'a kind =
  | Dir of 'a node Names.t Atomic.t
  | Leaf of 'a

and 'a node = {
  node_path : Path.t;
  node_label : string;  (* node_path rendered once, for audit records *)
  node_meta : Meta.t;
  node_tree : int;
      (* id of the owning tree: add_child checks it so an insert under
         a node resolved from a different tree cannot silently mutate
         that tree while corrupting this tree's node_count *)
  kind : 'a kind;
}

type 'a t = {
  tree_id : int;
  root_node : 'a node;
  node_count : int Atomic.t;
      (* total nodes including the root, maintained by add/remove so
         [size] never walks the tree *)
}

type error =
  | Not_found of Path.t
  | Already_exists of Path.t
  | Not_a_directory of Path.t
  | Is_a_directory of Path.t
  | Directory_not_empty of Path.t

let pp_error ppf = function
  | Not_found path -> Format.fprintf ppf "%a: not found" Path.pp path
  | Already_exists path -> Format.fprintf ppf "%a: already exists" Path.pp path
  | Not_a_directory path -> Format.fprintf ppf "%a: not a directory" Path.pp path
  | Is_a_directory path -> Format.fprintf ppf "%a: is a directory" Path.pp path
  | Directory_not_empty path -> Format.fprintf ppf "%a: directory not empty" Path.pp path

let tree_ids = Atomic.make 0

let create ~root_meta () =
  let tree_id = Atomic.fetch_and_add tree_ids 1 in
  {
    tree_id;
    root_node =
      {
        node_path = Path.root;
        node_label = Path.to_string Path.root;
        node_meta = root_meta;
        node_tree = tree_id;
        kind = Dir (Atomic.make Names.empty);
      };
    node_count = Atomic.make 1;
  }

let root tree = tree.root_node

let is_dir node =
  match node.kind with
  | Dir _ -> true
  | Leaf _ -> false

(* The one name-lookup step every walker takes. *)
let child node name =
  match node.kind with
  | Leaf _ -> None
  | Dir entries -> Names.find_opt name (Atomic.get entries)

(* Why [name] is missing under [node]: absent, or [node] is a leaf. *)
let miss node target =
  if is_dir node then Not_found target else Not_a_directory node.node_path

let find tree target =
  let rec walk node = function
    | [] -> Ok node
    | segment :: rest -> (
      match child node segment with
      | None -> Error (miss node target)
      | Some next -> walk next rest)
  in
  walk tree.root_node (Path.segments target)

let mem tree target =
  match find tree target with
  | Ok _ -> true
  | Error _ -> false

(* The node sequence a checked resolution consults: root, every
   interior node, then the target — the chain a Stamp records. *)
let chain tree target =
  let rec walk node acc = function
    | [] -> Some (List.rev (node :: acc))
    | segment :: rest -> (
      match child node segment with
      | None -> None
      | Some next -> walk next (node :: acc) rest)
  in
  walk tree.root_node [] (Path.segments target)

(* Insertion under an already-resolved parent node: the bulk-populate
   path.  A path-addressed insert re-walks from the root (O(depth));
   building a 10^5-node tree that way costs O(nodes x depth), so the
   population workload holds the parent and inserts children in
   O(log fanout). *)
let add_child tree parent name ~meta kind_of_path =
  if parent.node_tree <> tree.tree_id then
    invalid_arg
      (Printf.sprintf
         "Namespace.add_child: parent %s belongs to a different tree"
         parent.node_label);
  match parent.kind with
  | Leaf _ -> Error (Not_a_directory parent.node_path)
  | Dir entries ->
    let target = Path.child parent.node_path name in
    let node =
      {
        node_path = target;
        node_label = Path.to_string target;
        node_meta = meta;
        node_tree = tree.tree_id;
        kind = kind_of_path ();
      }
    in
    let rec insert () =
      let current = Atomic.get entries in
      if Names.mem name current then Error (Already_exists target)
      else if Atomic.compare_and_set entries current (Names.add name node current) then begin
        Atomic.incr tree.node_count;
        Ok node
      end
      else insert ()
    in
    insert ()

let new_dir () = Dir (Atomic.make Names.empty)

let add_dir_at tree parent name ~meta = add_child tree parent name ~meta new_dir

let add_leaf_at tree parent name ~meta payload =
  add_child tree parent name ~meta (fun () -> Leaf payload)

let add_node tree target ~meta kind_of_path =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Already_exists Path.root)
  | Some parent_path, Some name -> (
    match find tree parent_path with
    | Error e -> Error e
    | Ok parent -> add_child tree parent name ~meta kind_of_path)

let add_dir tree target ~meta = add_node tree target ~meta new_dir
let add_leaf tree target ~meta payload = add_node tree target ~meta (fun () -> Leaf payload)

let remove tree target =
  match Path.parent target, Path.basename target with
  | None, _ | _, None -> Error (Directory_not_empty Path.root)
  | Some parent_path, Some name -> (
    match find tree parent_path with
    | Error e -> Error e
    | Ok parent -> (
      match child parent name, parent.kind with
      | None, _ | Some _, Leaf _ -> Error (miss parent target)
      | Some { kind = Dir children; _ }, _ when not (Names.is_empty (Atomic.get children)) ->
        Error (Directory_not_empty target)
      | Some node, Dir entries ->
        (* Unlink [node] only while it is still bound to [name]: a
           racing remove may have got there first. *)
        let rec unlink () =
          let current = Atomic.get entries in
          match Names.find_opt name current with
          | Some linked when linked == node ->
            Atomic.compare_and_set entries current (Names.remove name current) || unlink ()
          | Some _ | None -> false
        in
        if unlink () then begin
          Atomic.decr tree.node_count;
          (* Unlink first, bump after (data-then-generation): a stamp
             that read the old generation goes stale, and one that read
             the bumped value cannot also see the node linked. *)
          Meta.touch node.node_meta;
          Ok ()
        end
        else Error (Not_found target)))

let meta node = node.node_meta
let path node = node.node_path
let label node = node.node_label

let payload node =
  match node.kind with
  | Dir _ -> None
  | Leaf value -> Some value

let children node =
  match node.kind with
  | Leaf _ -> []
  | Dir entries -> Names.bindings (Atomic.get entries)

let leaves node =
  List.filter_map (fun (_, child) -> if is_dir child then None else Some child) (children node)

let rec iter_node node f =
  f node;
  match node.kind with
  | Leaf _ -> ()
  | Dir entries -> Names.iter (fun _ child -> iter_node child f) (Atomic.get entries)

let iter tree f = iter_node tree.root_node f

let fold tree ~init ~f =
  let acc = ref init in
  iter tree (fun node -> acc := f !acc node);
  !acc

let size tree = Atomic.get tree.node_count
