#!/usr/bin/env python3
"""Walk through the retrieval core: chunk a document, embed the chunks,
run an exact cosine top-k search against an in-memory store, then save the
store, add a document and save again, which appends to the file."""

import os
import tempfile
from pathlib import Path

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
#    Each chunk carries its token texts, so the embedder need not split the
#    chunk texts again.
config = EmbedderConfig(dim=128)
vectors = embed_batch([c.text for c in chunks], config, [c.tokens for c in chunks])
print(f"embedded {len(vectors)} chunks at dim {config.dim}")

# 4. Store and search.
store = VectorStore(config.dim, fingerprint(config))
for chunk, vec in zip(chunks, vectors):
    store.insert(VectorRecord(f"{chunk.doc_id}:{chunk.index}", vec, "chunk", chunk.text))

query = "how does cosine similarity retrieval work?"
for record_id, score in store.query_top_k(embed(query, config), k=3):
    print(f"  {score:+.4f}  {record_id}  {store.get(record_id).text[:48]!r}")

# 5. Save, add a document, save again. The second save finds the file as the
#    first left it, so it writes only the new rows past its end and then
#    rewrites the header's count in place; the bytes equal a whole save.
path = Path(tempfile.mkdtemp()) / "store.gtr"
store.save(path)
before = os.stat(path)
more = chunk_text(Document(id="more", text="Appending keeps earlier rows in place."), 16, 4)
for chunk, vec in zip(more, embed_batch([c.text for c in more], config)):
    store.insert(VectorRecord(f"{chunk.doc_id}:{chunk.index}", vec, "chunk", chunk.text))
store.save(path)
after = os.stat(path)
appended = after.st_ino == before.st_ino
print(f"second save {'appended' if appended else 'rewrote the file'}: "
      f"{before.st_size} -> {after.st_size} bytes, {len(VectorStore.load(path))} records")
assert appended
