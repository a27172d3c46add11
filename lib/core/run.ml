type t = {
  preflight : (Category.t -> Diagnostic.t list) option;
  manifest : (Obs.Manifest.t -> unit) option;
  record_ledger : bool;
}

let default = { preflight = None; manifest = None; record_ledger = false }
