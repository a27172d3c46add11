module Ledger = Ledger
