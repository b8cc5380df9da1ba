"""Chemistry cartridge (§3.2.4): Daylight-style structure search.

"Daylight supports efficient indexed lookup of full molecular structure
and tautomers, selection by substructure, structural similarity; and
fast nearest-neighbor selection.  The indexing scheme previously used a
proprietary file-based index structure.  [The cartridge] was provided by
storing the data within the database as LOBs ... minimal changes were
required to the index management software."

The proprietary Daylight toolkit is simulated: a SMILES-subset molecule
model, Weisfeiler-Lehman canonical certificates (full-structure and
tautomer keys), path fingerprints with the Daylight screening property
(substructure ⇒ fingerprint subset), and subgraph-isomorphism
verification.  The fingerprint index is one *file-format* data structure
(:class:`FingerprintIndexFile`) that runs unchanged over an external
file or a database LOB — the migration §3.2.4 describes.
"""

from repro.cartridges.chemistry.molecule import (
    Molecule, parse_smiles, random_molecule, random_substructure,
    to_smiles, certificate, tautomer_key)
from repro.cartridges.chemistry.fingerprint import (
    FP_BITS, fingerprint, path_strings, tanimoto)
from repro.cartridges.chemistry.search import (
    substructure_match, compile_pattern, full_match, tautomer_match,
    similarity, nearest_neighbors)
from repro.cartridges.chemistry.storage import FingerprintIndexFile, Record
from repro.cartridges.chemistry.indextype import (
    ChemIndexMethods, ChemStatsMethods, install,
    protect_external_index)

__all__ = [
    "Molecule",
    "parse_smiles",
    "to_smiles",
    "random_molecule",
    "random_substructure",
    "certificate",
    "tautomer_key",
    "fingerprint",
    "path_strings",
    "tanimoto",
    "FP_BITS",
    "substructure_match",
    "compile_pattern",
    "full_match",
    "tautomer_match",
    "similarity",
    "nearest_neighbors",
    "FingerprintIndexFile",
    "Record",
    "ChemIndexMethods",
    "ChemStatsMethods",
    "install",
    "protect_external_index",
]
