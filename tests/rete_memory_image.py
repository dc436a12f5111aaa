"""Left memories of a Rete network, bucket by bucket, for comparing two
engines' stored tokens rather than just their counts."""

from repro.rete import ReteNetwork


def left_buckets(network):
    """``{(node id, key values): [stored wme-id tuples in store order]}``
    of either engine.  On the kernel it also checks that every stored
    token is a well-formed ``(ids, wmes, values)`` tuple."""
    if not isinstance(network, ReteNetwork):  # the reference engine
        memories = network.memories
        return {(key.node_id, key.values):
                [token.ids() for token in memories.left_bucket(key)]
                for key in memories.left_keys()}
    kernel = network.kernel
    image = {}
    for ci, buckets in enumerate(kernel.memories.left):
        for key, bucket in buckets.items():
            stored = []
            for ids, wmes, values in bucket.values():
                assert ids == tuple(wme.wme_id for wme in wmes)
                assert type(values) is tuple
                stored.append(ids)
            image[kernel.node_id[ci], key] = stored
    return image


def left_state(network):
    """A kernel network's left buckets and its alias copies
    ``{(node id, key values, ids): number of later copies}``."""
    kernel = network.kernel
    copies = {(kernel.node_id[ci], key, ids): len(aliases)
              for (ci, key, ids), aliases in kernel.memories.copies.items()}
    return left_buckets(network), copies
