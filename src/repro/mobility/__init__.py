"""Mobility substrate for the Bluetooth propagation extension.

The paper's conclusion proposes extending the study to viruses "that
spread using the Bluetooth interface on a phone"; Bluetooth needs
co-location, so this subpackage provides a vectorised random-waypoint
field and a spatial-hash grid over it.  The xl engine samples its
Bluetooth partners from the grid when a scenario carries
``MobilityParameters``; without them the channel is random mixing.
"""

from .grid import GridSnapshot, GridWaypointField, brute_force_neighbors

__all__ = ["GridSnapshot", "GridWaypointField", "brute_force_neighbors"]
