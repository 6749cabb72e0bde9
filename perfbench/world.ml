(* The world generator every workload runs on.

   A world is booted the way [exsecd] boots a deployment: a clearance
   registry (so the linker issues certificates), [Policy.with_recheck],
   and every other [Kernel.boot] / [Reference_monitor] argument left at
   its default.  The same seed always draws the same world, so the
   oracle can build a twin: the {e reference} world has the same
   principals, objects, ACLs, classes and extensions, but is booted
   with [~cache:false] and no registry — no decision cache, no
   certificates — and the oracle calls it only through plain
   [Kernel.call] and [Resolver.resolve].

   Contents (names are stable; the seed picks memberships, ACLs and
   classes):
   - individuals [u00000 ..], groups [g000 ..] (some nested), the
     served client [user] and the administrator [admin];
   - [/fs/dNN/fMMM]: small files whose ACLs mix group grants, an
     [Everyone] grant, individual and group deny entries; a minority
     sit above the lattice bottom, so MAC denies some reads;
   - [/fs/big]: one 64 KiB file; [/fs/w/wN]: files the client writes;
   - [/svc/bench/pNN]: procedures, most executable by everyone (their
     imports certify), the rest gated by groups and one individual;
   - extensions [eNN] authored by registered principals, each
     importing three procedures; odd ones import one gated procedure
     and so are only partly certified; every second odd one is linked
     under an expiring issuance profile. *)

open Exsec_core
open Exsec_extsys
open Exsec_services

type shape = {
  individuals : int;
  groups : int;
  registered : int;  (** individuals [0 .. registered-1] hold clearances *)
  dirs : int;
  files_per_dir : int;
  procs : int;
  extensions : int;
  write_files : int;
}

(* Below [Acl_compiled.dense_limit] registered individuals. *)
let dense =
  {
    individuals = 3000;
    groups = 64;
    registered = 24;
    dirs = 16;
    files_per_dir = 32;
    procs = 64;
    extensions = 16;
    write_files = 8;
  }

(* Above it: sparse compiled ACLs. *)
let sparse = { dense with individuals = 20_000; groups = 200 }

type ext = {
  ext_name : string;
  author : int;  (** index into [people] *)
  imports : Path.t list;
  expiring : bool;  (** linked under a profile with a validity horizon *)
}

type t = {
  shape : shape;
  kernel : Kernel.t;
  fs : Memfs.t;
  db : Principal.Db.t;
  admin : Subject.t;
  people : Principal.individual array;
  groups : Principal.group array;
  subjects : Subject.t array;  (** one session per individual, at its clearance *)
  user_subject : Subject.t;
  files : Path.t array;
  big : Path.t;
  writes : Path.t array;
  dirs : Path.t array;
  procs : Path.t array;
  exts : ext array;
  linked : Exsec_extsys.Linker.Linked.t array;  (** replaced on re-link *)
  link_ns : Lat.t;  (** every [Linker.link] made on this world *)
  classes : Security_class.t array;
}

let file_bytes = 48
let big_bytes = 65536
let bench_mount = Path.of_string "/svc/bench"

let fail what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ Service.error_to_string e)

let contents name = Printf.sprintf "%-*s" file_bytes (name ^ ":")

let expiring_profile =
  Exsec_analysis.Certificate.make_profile ~name:"bench-expiring"
    ~prefixes:[ bench_mount ] ~validity:8 ()

(* Link on the author's authority, timing the call. *)
let link_ext ~kernel ~people ~subjects ~link_ns ext =
  let extension =
    Extension.make ~name:ext.ext_name ~author:people.(ext.author) ~imports:ext.imports ()
  in
  let profile = if ext.expiring then Some expiring_profile else None in
  let t0 = Clock.now () in
  let result =
    Exsec_extsys.Linker.link ?profile kernel ~subject:subjects.(ext.author) extension
  in
  Lat.record link_ns (Clock.now () - t0);
  match result with
  | Ok linked -> linked
  | Error e ->
    failwith
      (Format.asprintf "link %s: %a" ext.ext_name Exsec_extsys.Linker.pp_link_error e)

let relink world i =
  world.linked.(i) <-
    link_ext ~kernel:world.kernel ~people:world.people ~subjects:world.subjects
      ~link_ns:world.link_ns world.exts.(i)

let build ~reference ~seed shape =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pick n = Random.State.int rng n in
  let hierarchy = Level.hierarchy [ "high"; "mid"; "low" ] in
  let universe = Category.universe [ "a"; "b"; "c" ] in
  let cls level cats =
    Security_class.make (Level.of_name_exn hierarchy level) (Category.of_names universe cats)
  in
  let bottom = Security_class.bottom hierarchy universe in
  let classes =
    [|
      bottom; cls "low" [ "a" ]; cls "mid" []; cls "mid" [ "a" ]; cls "mid" [ "a"; "b" ];
      cls "high" [ "a"; "b"; "c" ];
    |]
  in
  (* Clearances lean high, object classes low: MAC denies a minority
     of reads. *)
  let clearance_weights = [| 0; 1; 2; 3; 3; 4; 4; 4; 5; 5; 5 |] in
  let clearance () = classes.(clearance_weights.(pick (Array.length clearance_weights))) in
  let object_class () = if pick 100 < 85 then bottom else classes.(1 + pick 5) in
  let db = Principal.Db.create () in
  let admin_p = Principal.individual "admin" in
  let user_p = Principal.individual "user" in
  let people = Array.init shape.individuals (fun i -> Principal.individual (Printf.sprintf "u%05d" i)) in
  let groups = Array.init shape.groups (fun g -> Principal.group (Printf.sprintf "g%03d" g)) in
  let clearances = Array.init shape.individuals (fun _ -> clearance ()) in
  let user_clearance = cls "mid" [ "a"; "b" ] in
  Principal.Db.add_individual db admin_p;
  Principal.Db.batch db (fun () ->
      Array.iter (Principal.Db.add_group db) groups;
      (* Every group g = 1 mod 4 nests under g/4: a fixed shape, so
         snapshot refresh costs do not vary with the seed; edges point
         to a higher index, so no cycle can form. *)
      for g = 1 to shape.groups - 1 do
        if g mod 4 = 1 then Principal.Db.add_member db groups.(g / 4) (Principal.Grp groups.(g))
      done;
      Array.iter
        (fun p ->
          Principal.Db.add_individual db p;
          Principal.Db.add_member db groups.(pick shape.groups) (Principal.Ind p);
          Principal.Db.add_member db groups.(pick shape.groups) (Principal.Ind p))
        people;
      Principal.Db.add_individual db user_p;
      Principal.Db.add_member db groups.(pick shape.groups) (Principal.Ind user_p));
  let registry =
    if reference then None
    else begin
      let registry = Clearance.create () in
      Clearance.register registry ~trusted:true admin_p (Security_class.top hierarchy universe);
      Clearance.register registry user_p user_clearance;
      for i = 0 to shape.registered - 1 do
        Clearance.register registry people.(i) clearances.(i)
      done;
      Some registry
    end
  in
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ?cache:(if reference then Some false else None)
      ?registry ~db ~admin:admin_p ~hierarchy ~universe ()
  in
  let admin = Kernel.admin_subject kernel in
  let fs = fail "mount /fs" (Memfs.mount kernel ~subject:admin ()) in
  let dir_acl =
    Acl.of_entries [ Acl.allow_all (Acl.Individual admin_p); Acl.allow Acl.Everyone [ Access_mode.List ] ]
  in
  let group () = Acl.Group groups.(pick shape.groups) in
  let person () = Acl.Individual people.(pick shape.individuals) in
  let dirs = Array.init shape.dirs (fun d -> Printf.sprintf "d%02d" d) in
  Array.iter (fun d -> fail d (Memfs.mkdir fs ~subject:admin ~klass:bottom ~acl:dir_acl d)) dirs;
  let files =
    Array.init (shape.dirs * shape.files_per_dir) (fun k ->
        let name = Printf.sprintf "%s/f%03d" dirs.(k / shape.files_per_dir) (k mod shape.files_per_dir) in
        let entries =
          [
            Acl.allow_all (Acl.Individual admin_p);
            Acl.allow (group ()) [ Access_mode.Read; Access_mode.List ];
            Acl.allow (group ()) [ Access_mode.Read ];
            Acl.deny (person ()) [ Access_mode.Read ];
            Acl.deny (person ()) [ Access_mode.Read ];
          ]
          @ (if pick 100 < 80 then [ Acl.allow Acl.Everyone [ Access_mode.Read ] ] else [])
          @ (if pick 100 < 15 then [ Acl.deny (group ()) [ Access_mode.Read ] ] else [])
          @ if pick 100 < 10 then [ Acl.deny (Acl.Individual user_p) [ Access_mode.Read ] ] else []
        in
        let klass = object_class () in
        fail name
          (Memfs.create fs ~subject:admin ~klass ~acl:(Acl.of_entries entries) name (contents name));
        Memfs.abs fs name)
  in
  let public_read =
    Acl.of_entries [ Acl.allow_all (Acl.Individual admin_p); Acl.allow Acl.Everyone [ Access_mode.Read ] ]
  in
  fail "big" (Memfs.create fs ~subject:admin ~klass:bottom ~acl:public_read "big" (String.make big_bytes 'x'));
  fail "w" (Memfs.mkdir fs ~subject:admin ~klass:bottom ~acl:dir_acl "w");
  let writes =
    Array.init shape.write_files (fun w ->
        let name = Printf.sprintf "w/w%d" w in
        let entries =
          [
            Acl.allow_all (Acl.Individual admin_p);
            Acl.allow Acl.Everyone [ Access_mode.Read; Access_mode.Write ];
          ]
          @ if w = 0 then [ Acl.deny (Acl.Individual user_p) [ Access_mode.Write ] ] else []
        in
        fail name
          (Memfs.create fs ~subject:admin ~klass:user_clearance ~acl:(Acl.of_entries entries) name
             (contents name));
        Memfs.abs fs name)
  in
  fail "/svc/bench"
    (Kernel.add_dir kernel ~subject:admin bench_mount ~meta:(Meta.make ~owner:admin_p ~acl:dir_acl bottom));
  (* Procedure p is public with probability 0.6; otherwise two groups
     and the registered individual p mod registered may execute it. *)
  let public = Array.init shape.procs (fun _ -> pick 10 < 6) in
  let procs =
    Array.init shape.procs (fun p ->
        let path = Path.child bench_mount (Printf.sprintf "p%02d" p) in
        let entries =
          if public.(p) then
            [
              Acl.allow_all (Acl.Individual admin_p);
              Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
            ]
          else
            [
              Acl.allow_all (Acl.Individual admin_p);
              Acl.allow Acl.Everyone [ Access_mode.List ];
              Acl.allow (group ()) [ Access_mode.Execute ];
              Acl.allow (group ()) [ Access_mode.Execute ];
              Acl.allow (Acl.Individual people.(p mod shape.registered)) [ Access_mode.Execute ];
            ]
        in
        fail (Path.to_string path)
          (Kernel.install_proc kernel ~subject:admin path
             ~meta:(Meta.make ~owner:admin_p ~acl:(Acl.of_entries entries) bottom)
             (Service.proc (Printf.sprintf "p%02d" p) 0 (Service.const (Value.int p))));
        path)
  in
  let public_procs = List.filter (fun p -> public.(p)) (List.init shape.procs Fun.id) in
  let n_public = List.length public_procs in
  let exts =
    Array.init shape.extensions (fun e ->
        let author = e mod shape.registered in
        let pub () = procs.(List.nth public_procs (pick n_public)) in
        let gated =
          List.filter
            (fun p -> (not public.(p)) && p mod shape.registered = author)
            (List.init shape.procs Fun.id)
        in
        let imports =
          match gated with
          | p :: _ when e mod 2 = 1 -> [ pub (); pub (); procs.(p) ]
          | _ -> [ pub (); pub (); pub () ]
        in
        {
          ext_name = Printf.sprintf "e%02d" e;
          author;
          imports = List.sort_uniq Path.compare imports;
          expiring = e mod 4 = 3;
        })
  in
  let subjects = Array.mapi (fun i p -> Subject.make p clearances.(i)) people in
  let link_ns = Lat.create () in
  let linked = Array.map (link_ext ~kernel ~people ~subjects ~link_ns) exts in
  {
      shape;
      kernel;
      fs;
      db;
      admin;
      people;
      groups;
      subjects;
      user_subject = Subject.make user_p user_clearance;
      files;
      big = Memfs.abs fs "big";
      writes;
      dirs = Array.map (Memfs.abs fs) dirs;
      procs;
      exts;
      linked;
      link_ns;
      classes;
    }

let resolver world = Kernel.resolver world.kernel

let meta world path =
  match Namespace.find (Kernel.namespace world.kernel) path with
  | Ok node -> Namespace.meta node
  | Error _ -> failwith ("no such object " ^ Path.to_string path)
