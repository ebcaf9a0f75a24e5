"""Serialization of compressed Tucker models.

The end product of the paper's pipeline is a compressed artifact that can be
shipped to a laptop and partially reconstructed there (Sec. VII).  This
package stores :class:`~repro.core.tucker.TuckerTensor` objects as ``.npz``
containers with JSON metadata and reports on-disk compression relative to
the raw tensor.
"""

from repro.io.tucker_io import load_tucker, save_tucker, stored_bytes

__all__ = ["save_tucker", "load_tucker", "stored_bytes"]
