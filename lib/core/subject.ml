type t = {
  principal : Principal.individual;
  clearance : Security_class.t;
  ceiling : Security_class.t option;
  trusted : bool;
  integrity : Security_class.t option;
}

let make ?ceiling ?(trusted = false) ?integrity principal clearance =
  { principal; clearance; ceiling; trusted; integrity }

let placeholder =
  make
    (Principal.individual "placeholder")
    (Security_class.bottom (Level.hierarchy [ "placeholder" ]) (Category.universe []))

let is_trusted subject = subject.trusted
let integrity subject = subject.integrity
let principal subject = subject.principal
let clearance subject = subject.clearance
let ceiling subject = subject.ceiling

let effective_class subject =
  match subject.ceiling with
  | None -> subject.clearance
  | Some cap -> Security_class.meet subject.clearance cap

let with_ceiling subject cap =
  let cap =
    match subject.ceiling with
    | None -> cap
    | Some existing -> Security_class.meet existing cap
  in
  { subject with ceiling = Some cap }

let without_ceiling subject = { subject with ceiling = None }

let pp ppf subject =
  Format.fprintf ppf "%a@%a" Principal.pp_individual subject.principal
    Security_class.pp (effective_class subject)
