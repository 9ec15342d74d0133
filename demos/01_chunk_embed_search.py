#!/usr/bin/env python3
"""Walk through the retrieval core: chunk a document, embed the chunks,
and run an exact cosine top-k search against an in-memory store."""

from gtr import Document, EmbedderConfig, VectorRecord, VectorStore
from gtr import chunk_text, embed, embed_batch, fingerprint, tokenize

TEXT = (
    "Vector search works by mapping text to points in a vector space. "
    "Nearby points carry related meanings. A query is embedded the same "
    "way, and the closest stored points are retrieved by cosine "
    "similarity. Exact search scans every record, which is plenty fast "
    "for corpora of this size."
)

# 1. Tokenize: a deterministic whitespace-and-punctuation split where every
#    token remembers its byte offsets into the UTF-8 encoding of the text.
tokens = tokenize(TEXT)
print(f"{len(tokens)} tokens; first five: {[t.text for t in tokens[:5]]}")

# 2. Chunk into overlapping token windows; each chunk's text is the exact
#    source slice from its first token to its last.
doc = Document(id="intro", text=TEXT)
chunks = chunk_text(doc, chunk_size=16, overlap=4)
for c in chunks:
    print(f"  chunk {c.index}: tokens [{c.token_start}, {c.token_end}) -> {c.text[:40]!r}...")

# 3. Embed with the offline hashed bag-of-words backend (unit-norm vectors).
config = EmbedderConfig(dim=128)
vectors = embed_batch([c.text for c in chunks], config)
print(f"embedded {len(vectors)} chunks at dim {config.dim}")

# 4. Store and search.
store = VectorStore(config.dim, fingerprint(config))
for chunk, vec in zip(chunks, vectors):
    store.insert(VectorRecord(f"{chunk.doc_id}:{chunk.index}", vec, "chunk", chunk.text))

query = "how does cosine similarity retrieval work?"
for record_id, score in store.query_top_k(embed(query, config), k=3):
    print(f"  {score:+.4f}  {record_id}  {store.get(record_id).text[:48]!r}")
